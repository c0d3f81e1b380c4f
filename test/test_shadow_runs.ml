open Sigil

(* Differential test of the callback range read against the per-byte
   shadow: random write/read ranges over an arena that straddles several
   4 KB chunks, in every reuse x producer-call mode, with and without a
   FIFO limit small enough to evict chunks (and recycle their planes)
   mid-range. *)

type op =
  | W of { ctx : int; call : int; addr : int; len : int }
  | R of { ctx : int; call : int; addr : int; len : int }

(* not chunk-aligned, and four chunks wide *)
let arena = (2 * Shadow.chunk_bytes) - 1000
let arena_size = (3 * Shadow.chunk_bytes) + 2000

let gen_case =
  let open QCheck.Gen in
  let gen_len =
    frequency
      [ (4, int_range 1 64); (2, int_range 1 600); (1, int_range 1 (Shadow.chunk_bytes + 200)) ]
  in
  (* three spans in four start within 32 bytes of a chunk boundary, so
     ranges overlap often and reads cross writers and chunks; two
     contexts with three calls each make producer-call splits common *)
  let gen_start len =
    frequency
      [
        (1, int_range 0 (arena_size - len));
        ( 3,
          map2
            (fun k d -> min (arena_size - len) (max 0 ((k * Shadow.chunk_bytes) - arena + d)))
            (int_range 1 4) (int_range (-32) 32) );
      ]
  in
  let gen_span = gen_len >>= fun len -> map (fun off -> (arena + off, len)) (gen_start len) in
  let gen_op =
    map3
      (fun write (ctx, call) (addr, len) ->
        if write then W { ctx; call; addr; len } else R { ctx; call; addr; len })
      bool
      (pair (int_range 1 2) (int_range 1 3))
      gen_span
  in
  pair (opt (int_range 1 3)) (list_size (int_range 1 40) gen_op)

let print_case (max_chunks, ops) =
  Printf.sprintf "max_chunks=%s %s"
    (match max_chunks with None -> "-" | Some n -> string_of_int n)
    (String.concat ";"
       (List.map
          (function
            | W { ctx; call; addr; len } ->
              Printf.sprintf "w(%d,%d)%d+%d" ctx call (addr - arena) len
            | R { ctx; call; addr; len } ->
              Printf.sprintf "r(%d,%d)%d+%d" ctx call (addr - arena) len)
          ops))

let arbitrary = QCheck.make ~print:print_case gen_case

type sink_call =
  | Episode of int * int * int * int
  | Version of int * int

let logging () =
  let log = ref [] in
  let sink =
    {
      Shadow.on_episode_end =
        (fun ~reader ~reads ~first ~last -> log := Episode (reader, reads, first, last) :: !log);
      on_version_end = (fun ~producer ~nonunique -> log := Version (producer, nonunique) :: !log);
    }
  in
  (sink, log)

(* [runs] must be exactly the maximal coalescing of [bytes], the per-byte
   results of the same read. *)
let check_runs ~len (runs : Run_list.run list) (bytes : Shadow.read_result list) =
  let total = List.fold_left (fun a (r : Run_list.run) -> a + r.bytes) 0 runs in
  if total <> len then QCheck.Test.fail_reportf "runs cover %d bytes of %d" total len;
  let rec adjacent = function
    | (a : Run_list.run) :: (b :: _ as rest) ->
      if a.producer = b.producer && a.producer_call = b.producer_call then
        QCheck.Test.fail_reportf "adjacent runs share producer (%d, %d)" a.producer
          a.producer_call;
      adjacent rest
    | [ _ ] | [] -> ()
  in
  adjacent runs;
  let rec split n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | b :: rest -> split (n - 1) (b :: acc) rest
    | [] -> (List.rev acc, [])
  in
  ignore
    (List.fold_left
       (fun bytes (r : Run_list.run) ->
         if r.bytes <= 0 then QCheck.Test.fail_reportf "empty run";
         let span, rest = split r.bytes [] bytes in
         List.iter
           (fun (b : Shadow.read_result) ->
             if b.Shadow.producer <> r.producer || b.Shadow.producer_call <> r.producer_call then
               QCheck.Test.fail_reportf "run (%d, %d) holds a byte of (%d, %d)" r.producer
                 r.producer_call b.Shadow.producer b.Shadow.producer_call)
           span;
         let unique =
           List.length (List.filter (fun (b : Shadow.read_result) -> b.Shadow.unique) span)
         in
         if unique <> r.unique_bytes then
           QCheck.Test.fail_reportf "run reports %d unique bytes, per-byte reads %d" r.unique_bytes
             unique;
         rest)
       bytes runs)

let modes = [ (false, false); (false, true); (true, false); (true, true) ]

(* Runs [ops] through both tables in every mode; returns the evictions of
   each mode. *)
let check_case (max_chunks, ops) =
  List.map
    (fun (reuse, track_writer_call) ->
      let range_sink, range_log = logging () in
      let byte_sink, byte_log = logging () in
      let by_range = Shadow.create ~reuse ~track_writer_call ?max_chunks ~sink:range_sink () in
      let by_byte = Shadow.create ~reuse ~track_writer_call ?max_chunks ~sink:byte_sink () in
      let runs_seen = ref 0 in
      List.iteri
        (fun now -> function
          | W { ctx; call; addr; len } ->
            Shadow.write_range by_range ~ctx ~call ~now addr len;
            for i = 0 to len - 1 do
              Shadow.write by_byte ~ctx ~call ~now (addr + i)
            done
          | R { ctx; call; addr; len } ->
            let runs = Run_list.read_range by_range ~ctx ~call ~now addr len in
            runs_seen := !runs_seen + List.length runs;
            let bytes = List.init len (fun i -> Shadow.read by_byte ~ctx ~call ~now (addr + i)) in
            check_runs ~len runs bytes)
        ops;
      Shadow.flush by_range;
      Shadow.flush by_byte;
      if List.length !range_log <> List.length !byte_log then
        QCheck.Test.fail_reportf "reuse=%b writer_call=%b: %d sink calls, per-byte %d" reuse
          track_writer_call (List.length !range_log) (List.length !byte_log);
      if !range_log <> !byte_log then
        QCheck.Test.fail_reportf "reuse=%b writer_call=%b: sink calls differ in order" reuse
          track_writer_call;
      let range_runs =
        Telemetry.get_int (Telemetry.of_samples (Shadow.telemetry by_range)) "shadow.range_runs"
      in
      if range_runs <> !runs_seen then
        QCheck.Test.fail_reportf "shadow.range_runs %d, runs delivered %d" range_runs !runs_seen;
      if Shadow.evictions by_range <> Shadow.evictions by_byte then
        QCheck.Test.fail_reportf "evictions %d, per-byte %d" (Shadow.evictions by_range)
          (Shadow.evictions by_byte);
      Shadow.evictions by_range)
    modes

let prop_runs_match_per_byte =
  QCheck.Test.make ~name:"callback runs match per-byte reads" ~count:150 arbitrary (fun case ->
      ignore (check_case case);
      true)

(* A fixed thrashing case: one live chunk, and reads and writes that cross
   chunk boundaries, so every mode evicts and recycles mid-range. *)
let test_thrashing_case () =
  let c = Shadow.chunk_bytes in
  let ops =
    [
      W { ctx = 1; call = 1; addr = (2 * c) - 8; len = 16 };
      W { ctx = 2; call = 1; addr = (3 * c) - 4; len = c };
      R { ctx = 3; call = 1; addr = (2 * c) - 12; len = c + 24 };
      R { ctx = 3; call = 1; addr = (2 * c) - 12; len = 40 };
      W { ctx = 1; call = 2; addr = (2 * c) + 4; len = 8 };
      R { ctx = 2; call = 2; addr = (2 * c) - 2; len = (2 * c) + 8 };
    ]
  in
  List.iter2
    (fun (reuse, track_writer_call) evictions ->
      Alcotest.(check bool)
        (Printf.sprintf "reuse=%b writer_call=%b evicts" reuse track_writer_call)
        true (evictions > 3))
    modes
    (check_case (Some 1, ops))

let () =
  Alcotest.run "shadow_runs"
    [
      ( "runs",
        Alcotest.test_case "thrashing case" `Quick test_thrashing_case
        :: List.map QCheck_alcotest.to_alcotest [ prop_runs_match_per_byte ] );
    ]
