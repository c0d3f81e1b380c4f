open Sigil

(* Range API: chunk clamping, run coalescing, eviction mid-range, and
   byte-for-byte equivalence with one-byte ranges. *)

let run_t = Run_list.run_t

let mk ?reuse ?track_writer_call ?max_chunks ?sink () =
  Shadow.create ?reuse ?track_writer_call ?max_chunks ?sink ()

let addr = 0x200000

let test_single_run_coalesced () =
  let t = mk () in
  Shadow.write_range t ~ctx:3 ~call:1 ~now:0 addr 64;
  let runs = Run_list.read_range t ~ctx:5 ~call:1 ~now:1 addr 64 in
  Alcotest.(check (list run_t))
    "one coalesced run"
    [ { Run_list.producer = 3; producer_call = 0; bytes = 64; unique_bytes = 64 } ]
    runs

let test_runs_split_on_producer () =
  let t = mk () in
  Shadow.write_range t ~ctx:3 ~call:1 ~now:0 addr 8;
  Shadow.write_range t ~ctx:4 ~call:1 ~now:0 (addr + 8) 4;
  Shadow.write_range t ~ctx:3 ~call:1 ~now:0 (addr + 12) 4;
  let runs = Run_list.read_range t ~ctx:5 ~call:1 ~now:1 addr 16 in
  Alcotest.(check (list run_t))
    "three runs, split at producer changes"
    [
      { Run_list.producer = 3; producer_call = 0; bytes = 8; unique_bytes = 8 };
      { Run_list.producer = 4; producer_call = 0; bytes = 4; unique_bytes = 4 };
      { Run_list.producer = 3; producer_call = 0; bytes = 4; unique_bytes = 4 };
    ]
    runs

let test_runs_split_on_producer_call () =
  (* same producer context but different calls must not coalesce: event
     files attach transfers to the producing call *)
  let t = mk ~track_writer_call:true () in
  Shadow.write_range t ~ctx:3 ~call:1 ~now:0 addr 4;
  Shadow.write_range t ~ctx:3 ~call:2 ~now:0 (addr + 4) 4;
  let runs = Run_list.read_range t ~ctx:5 ~call:1 ~now:1 addr 8 in
  Alcotest.(check (list run_t))
    "split at producer-call change"
    [
      { Run_list.producer = 3; producer_call = 1; bytes = 4; unique_bytes = 4 };
      { Run_list.producer = 3; producer_call = 2; bytes = 4; unique_bytes = 4 };
    ]
    runs

let test_unique_vs_nonunique_mix () =
  let t = mk () in
  Shadow.write_range t ~ctx:3 ~call:1 ~now:0 addr 8;
  (* pre-read the middle 4 bytes with the same (ctx, call) as below *)
  ignore (Run_list.read_range t ~ctx:5 ~call:1 ~now:1 (addr + 2) 4);
  let runs = Run_list.read_range t ~ctx:5 ~call:1 ~now:2 addr 8 in
  (* one producer throughout, so still one run; 4 of its bytes are re-reads *)
  Alcotest.(check (list run_t))
    "unique count excludes same-call re-reads"
    [ { Run_list.producer = 3; producer_call = 0; bytes = 8; unique_bytes = 4 } ]
    runs

let test_cross_chunk_span () =
  let t = mk () in
  let start = (3 * Shadow.chunk_bytes) - 5 in
  Shadow.write_range t ~ctx:7 ~call:1 ~now:0 start 10;
  Alcotest.(check int) "two chunks allocated" 2 (Run_list.chunks_live t);
  let runs = Run_list.read_range t ~ctx:5 ~call:1 ~now:1 start 10 in
  Alcotest.(check (list run_t))
    "runs coalesce across the chunk boundary"
    [ { Run_list.producer = 7; producer_call = 0; bytes = 10; unique_bytes = 10 } ]
    runs;
  (* both sides of the boundary really are shadowed *)
  Alcotest.(check int) "left of boundary" 7 (Run_list.producer t start);
  Alcotest.(check int) "right of boundary" 7 (Run_list.producer t (start + 9))

let test_eviction_mid_range () =
  (* with max_chunks = 1, a cross-chunk write must evict the first chunk
     while the range is still in flight, and still land every byte *)
  let t = mk ~max_chunks:1 () in
  let start = Shadow.chunk_bytes - 4 in
  Shadow.write_range t ~ctx:7 ~call:1 ~now:0 start 8;
  Alcotest.(check int) "one live chunk" 1 (Run_list.chunks_live t);
  Alcotest.(check int) "first chunk evicted mid-range" 1 (Shadow.evictions t);
  Alcotest.(check int) "surviving side kept" 7 (Run_list.producer t Shadow.chunk_bytes);
  (* reading back across the boundary thrashes the single slot again:
     re-allocating chunk 0 evicts chunk 1 before its span is read, so every
     byte comes back as program input — exactly what per-byte reads do,
     and the evicted side's writer is forgotten *)
  let runs = Run_list.read_range t ~ctx:5 ~call:1 ~now:1 start 8 in
  Alcotest.(check (list run_t))
    "thrashed bytes read as root-produced"
    [ { Run_list.producer = Dbi.Context.root; producer_call = 0; bytes = 8; unique_bytes = 8 } ]
    runs;
  Alcotest.(check int) "read re-evicted both chunks" 3 (Shadow.evictions t)

let test_eviction_mid_range_flushes_sink () =
  let versions = ref [] in
  let sink =
    {
      Shadow.on_episode_end = (fun ~reader:_ ~reads:_ ~first:_ ~last:_ -> ());
      on_version_end = (fun ~producer ~nonunique -> versions := (producer, nonunique) :: !versions);
    }
  in
  let t = mk ~reuse:true ~max_chunks:1 ~sink () in
  Run_list.write_byte t ~ctx:9 ~call:1 ~now:0 0;
  (* cross-chunk read evicts chunk 0 when it reaches chunk 1; the flush
     reports the written byte's version and, as program input, the two
     bytes of chunk 0 the read itself just touched *)
  ignore (Run_list.read_range t ~ctx:5 ~call:1 ~now:1 (Shadow.chunk_bytes - 2) 4);
  Alcotest.(check (list (pair int int)))
    "evicted versions reported"
    [ (Dbi.Context.root, 0); (Dbi.Context.root, 0); (9, 0) ]
    !versions

let test_range_equals_per_byte () =
  (* same interleaved access trace through both APIs -> identical
     classification and identical sink traffic *)
  let record () =
    let log = ref [] in
    let sink =
      {
        Shadow.on_episode_end =
          (fun ~reader ~reads ~first ~last -> log := `Ep (reader, reads, first, last) :: !log);
        on_version_end = (fun ~producer ~nonunique -> log := `Ver (producer, nonunique) :: !log);
      }
    in
    (Shadow.create ~reuse:true ~track_writer_call:true ~sink (), log)
  in
  let ops =
    [
      `W (1, 1, addr, 16);
      `R (2, 1, addr + 3, 8);
      `R (2, 1, addr, 16);
      `W (1, 2, addr + 8, 4);
      `R (3, 1, addr, 16);
      `R (2, 2, addr + 14, 6);
    ]
  in
  let by_range, log_r = record () in
  let range_results =
    List.map
      (function
        | `W (ctx, call, a, n) ->
          Shadow.write_range by_range ~ctx ~call ~now:0 a n;
          []
        | `R (ctx, call, a, n) -> Run_list.read_range by_range ~ctx ~call ~now:call a n)
      ops
  in
  let by_byte, log_b = record () in
  let byte_results =
    List.map
      (function
        | `W (ctx, call, a, n) ->
          for i = 0 to n - 1 do
            Run_list.write_byte by_byte ~ctx ~call ~now:0 (a + i)
          done;
          []
        | `R (ctx, call, a, n) ->
          List.init n (fun i -> Run_list.read_byte by_byte ~ctx ~call ~now:call (a + i)))
      ops
  in
  (* sink call sequences identical *)
  Alcotest.(check int) "same sink calls" (List.length !log_b) (List.length !log_r);
  Alcotest.(check bool) "same sink sequence" true (!log_b = !log_r);
  (* per-byte classification recovered from the runs matches exactly: the
     unique flags within a run are not positional, so compare totals *)
  List.iter2
    (fun runs bytes ->
      let run_total = List.fold_left (fun a (r : Run_list.run) -> a + r.bytes) 0 runs in
      let run_unique =
        List.fold_left (fun a (r : Run_list.run) -> a + r.unique_bytes) 0 runs
      in
      let byte_unique = List.fold_left (fun a (r : Run_list.run) -> a + r.unique_bytes) 0 bytes in
      Alcotest.(check int) "bytes" (List.length bytes) run_total;
      Alcotest.(check int) "unique bytes" byte_unique run_unique)
    range_results byte_results

let test_range_bounds () =
  let t = mk () in
  Alcotest.check_raises "past the end" (Invalid_argument "Shadow: address out of range")
    (fun () -> ignore (Run_list.read_range t ~ctx:1 ~call:1 ~now:0 (Shadow.max_address - 4) 8));
  Alcotest.check_raises "empty range" (Invalid_argument "Shadow: range length must be positive")
    (fun () -> ignore (Run_list.read_range t ~ctx:1 ~call:1 ~now:0 addr 0));
  Alcotest.check_raises "packed ctx bound"
    (Invalid_argument "Shadow: context id exceeds packed 16-bit bound") (fun () ->
      Shadow.write_range t ~ctx:0xFFFF ~call:1 ~now:0 addr 1)

let test_packed_footprint () =
  (* packed planes: ~8 host bytes per shadowed byte baseline and ~28 in
     full reuse+event width, vs 24 and 64 for the old boxed int arrays.
     Measure the marginal cost of a second chunk inside an already-mapped
     superpage so the page allocation doesn't blur the numbers. *)
  let marginal mk_t =
    let t = mk_t () in
    Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 addr;
    let one = Shadow.footprint_bytes t in
    Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 (addr + Shadow.chunk_bytes);
    Shadow.footprint_bytes t - one
  in
  let baseline = marginal (fun () -> mk ()) in
  Alcotest.(check bool)
    (Printf.sprintf "baseline chunk is packed (%d bytes)" baseline)
    true
    (baseline <= 9 * Shadow.chunk_bytes);
  let full = marginal (fun () -> mk ~reuse:true ~track_writer_call:true ()) in
  Alcotest.(check bool)
    (Printf.sprintf "full-width chunk is packed (%d bytes)" full)
    true
    (full <= 29 * Shadow.chunk_bytes);
  let base = Shadow.footprint_bytes (mk ()) in
  Alcotest.(check bool)
    (Printf.sprintf "empty-table floor is small (%d bytes)" base)
    true (base < 65536)

(* An evicted chunk's planes back the next chunk installed. Dirty every
   field of chunk A, let chunk B evict and recycle it, and B must read
   exactly like a never-touched chunk in every mode. *)
let test_recycled_chunk_reads_fresh () =
  let n = Shadow.chunk_bytes in
  let b = addr + n in
  List.iter
    (fun (reuse, track_writer_call) ->
      let mode = Printf.sprintf "reuse=%b writer_call=%b" reuse track_writer_call in
      let log = ref [] in
      let sink =
        {
          Shadow.on_episode_end =
            (fun ~reader ~reads ~first ~last -> log := `Ep (reader, reads, first, last) :: !log);
          on_version_end = (fun ~producer ~nonunique -> log := `Ver (producer, nonunique) :: !log);
        }
      in
      let t = mk ~reuse ~track_writer_call ~max_chunks:1 ~sink () in
      Shadow.write_range t ~ctx:3 ~call:7 ~now:1 addr n;
      ignore (Run_list.read_range t ~ctx:5 ~call:9 ~now:2 addr n);
      ignore (Run_list.read_range t ~ctx:5 ~call:9 ~now:3 addr n);
      (* the same (ctx, call) as A's stale reader: a fresh byte is unique,
         program input, with no producer call *)
      Alcotest.(check (list run_t))
        (mode ^ ": recycled chunk reads as untouched")
        [ { Run_list.producer = Dbi.Context.root; producer_call = 0; bytes = n; unique_bytes = n } ]
        (Run_list.read_range t ~ctx:5 ~call:9 ~now:10 b n);
      Alcotest.(check int) (mode ^ ": one eviction") 1 (Shadow.evictions t);
      log := [];
      (* a second read by the same call is non-unique; a new reader then
         closes a two-read episode that began at B's first read *)
      ignore (Run_list.read_range t ~ctx:5 ~call:9 ~now:11 b n);
      ignore (Run_list.read_range t ~ctx:6 ~call:1 ~now:12 b n);
      Shadow.flush t;
      let expected =
        if reuse then
          List.init n (fun _ -> `Ep (6, 1, 12, 12))
          @ List.init n (fun _ -> `Ver (Dbi.Context.root, 1))
          @ List.init n (fun _ -> `Ep (5, 2, 10, 11))
        else []
      in
      Alcotest.(check bool) (mode ^ ": episode and version fields start at zero") true
        (List.sort compare !log = List.sort compare expected);
      Alcotest.(check int)
        (mode ^ ": installs counted")
        2
        (Telemetry.get_int (Telemetry.of_samples (Shadow.telemetry t)) "shadow.chunks_allocated"))
    [ (false, false); (false, true); (true, false); (true, true) ]

let () =
  Alcotest.run "shadow_range"
    [
      ( "range",
        [
          Alcotest.test_case "single run coalesced" `Quick test_single_run_coalesced;
          Alcotest.test_case "runs split on producer" `Quick test_runs_split_on_producer;
          Alcotest.test_case "runs split on producer call" `Quick
            test_runs_split_on_producer_call;
          Alcotest.test_case "unique/nonunique mix" `Quick test_unique_vs_nonunique_mix;
          Alcotest.test_case "cross-chunk span" `Quick test_cross_chunk_span;
          Alcotest.test_case "eviction mid-range" `Quick test_eviction_mid_range;
          Alcotest.test_case "eviction mid-range flushes sink" `Quick
            test_eviction_mid_range_flushes_sink;
          Alcotest.test_case "range equals per-byte" `Quick test_range_equals_per_byte;
          Alcotest.test_case "range bounds" `Quick test_range_bounds;
          Alcotest.test_case "packed footprint" `Quick test_packed_footprint;
          Alcotest.test_case "recycled chunk reads fresh" `Quick test_recycled_chunk_reads_fresh;
        ] );
    ]
