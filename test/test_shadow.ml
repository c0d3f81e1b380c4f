open Sigil

(* Collecting sink for episode/version reports. *)
let collecting () =
  let episodes = ref [] and versions = ref [] in
  let sink =
    {
      Shadow.on_episode_end =
        (fun ~reader ~reads ~first ~last -> episodes := (reader, reads, first, last) :: !episodes);
      on_version_end = (fun ~producer ~nonunique -> versions := (producer, nonunique) :: !versions);
    }
  in
  (sink, episodes, versions)

let addr = 0x200000

let test_producer_tracking () =
  let t = Shadow.create () in
  Run_list.write_byte t ~ctx:3 ~call:1 ~now:0 addr;
  let r = Run_list.read_byte t ~ctx:5 ~call:1 ~now:1 addr in
  Alcotest.(check int) "producer is writer" 3 r.Run_list.producer;
  Alcotest.(check bool) "first read unique" true (r.Run_list.unique_bytes = 1)

let test_never_written_is_program_input () =
  let t = Shadow.create () in
  let r = Run_list.read_byte t ~ctx:5 ~call:1 ~now:0 addr in
  Alcotest.(check int) "root producer" Dbi.Context.root r.Run_list.producer;
  Alcotest.(check bool) "unique" true (r.Run_list.unique_bytes = 1)

let test_nonunique_same_call () =
  let t = Shadow.create () in
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 addr;
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:1 addr in
  let r2 = Run_list.read_byte t ~ctx:2 ~call:1 ~now:2 addr in
  Alcotest.(check bool) "same-call re-read non-unique" false (r2.Run_list.unique_bytes = 1);
  (* a later call of the same function must re-fetch: unique again *)
  let r3 = Run_list.read_byte t ~ctx:2 ~call:2 ~now:3 addr in
  Alcotest.(check bool) "cross-call read unique" true (r3.Run_list.unique_bytes = 1)

let test_reader_alternation_limitation () =
  (* the paper's single last-reader pointer: f,g,f counts the third read
     as unique again *)
  let t = Shadow.create () in
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 addr;
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:1 addr in
  let _ = Run_list.read_byte t ~ctx:3 ~call:1 ~now:2 addr in
  let r = Run_list.read_byte t ~ctx:2 ~call:1 ~now:3 addr in
  Alcotest.(check bool) "f again counts unique" true (r.Run_list.unique_bytes = 1)

let test_write_resets_uniqueness () =
  let t = Shadow.create () in
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 addr;
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:1 addr in
  Run_list.write_byte t ~ctx:1 ~call:2 ~now:2 addr;
  let r = Run_list.read_byte t ~ctx:2 ~call:1 ~now:3 addr in
  Alcotest.(check bool) "new version, unique again" true (r.Run_list.unique_bytes = 1)

let test_producer_call_tracked () =
  let t = Shadow.create ~track_writer_call:true () in
  Run_list.write_byte t ~ctx:1 ~call:7 ~now:0 addr;
  let r = Run_list.read_byte t ~ctx:2 ~call:1 ~now:1 addr in
  Alcotest.(check int) "producer call" 7 r.Run_list.producer_call

let test_episode_reporting () =
  let sink, episodes, _ = collecting () in
  let t = Shadow.create ~reuse:true ~sink () in
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 addr;
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:10 addr in
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:25 addr in
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:40 addr in
  (* a different call of the same fn closes the episode *)
  let _ = Run_list.read_byte t ~ctx:2 ~call:2 ~now:50 addr in
  Alcotest.(check (list (pair int (pair int (pair int int)))))
    "episode: reader 2, 3 reads, lifetime 10..40"
    [ (2, (3, (10, 40))) ]
    (List.map (fun (r, n, f, l) -> (r, (n, (f, l)))) !episodes)

let test_version_reporting_on_overwrite () =
  let sink, _, versions = collecting () in
  let t = Shadow.create ~reuse:true ~sink () in
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 addr;
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:1 addr in
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:2 addr in
  Run_list.write_byte t ~ctx:1 ~call:2 ~now:3 addr;
  Alcotest.(check (list (pair int int))) "version: producer 1, reuse 1" [ (1, 1) ] !versions

let test_flush_reports_everything () =
  let sink, episodes, versions = collecting () in
  let t = Shadow.create ~reuse:true ~sink () in
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 addr;
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:1 addr in
  Shadow.flush t;
  Alcotest.(check int) "one episode" 1 (List.length !episodes);
  Alcotest.(check int) "one version" 1 (List.length !versions);
  (* flush is terminal for that byte's state *)
  let r = Run_list.read_byte t ~ctx:2 ~call:1 ~now:5 addr in
  Alcotest.(check int) "producer forgotten" Dbi.Context.root r.Run_list.producer

let test_input_version_reported () =
  let sink, _, versions = collecting () in
  let t = Shadow.create ~reuse:true ~sink () in
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:1 addr in
  Shadow.flush t;
  Alcotest.(check (list (pair int int)))
    "program input producer root" [ (Dbi.Context.root, 0) ] !versions

let test_fifo_eviction () =
  let t = Shadow.create ~max_chunks:2 () in
  let chunk = Shadow.chunk_bytes in
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 0;
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 chunk;
  Alcotest.(check int) "two live" 2 (Run_list.chunks_live t);
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 (2 * chunk);
  Alcotest.(check int) "still two live" 2 (Run_list.chunks_live t);
  Alcotest.(check int) "one eviction" 1 (Shadow.evictions t);
  (* the oldest chunk was dropped: its producer is forgotten (read the
     live chunk first: reading chunk 0 brings it back and evicts another) *)
  Alcotest.(check int) "recent survives" 1 (Run_list.producer t chunk);
  Alcotest.(check int) "producer gone" Dbi.Context.root (Run_list.producer t 0)

let test_eviction_flushes_stats () =
  let sink, episodes, _ = collecting () in
  let t = Shadow.create ~reuse:true ~max_chunks:1 ~sink () in
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:1 0 in
  (* touching a second chunk evicts the first, closing its episode *)
  let _ = Run_list.read_byte t ~ctx:2 ~call:1 ~now:2 Shadow.chunk_bytes in
  Alcotest.(check int) "episode flushed by eviction" 1 (List.length !episodes)

let test_footprint_accounting () =
  let t = Shadow.create () in
  let base = Shadow.footprint_bytes t in
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 addr;
  let one = Shadow.footprint_bytes t in
  Alcotest.(check bool) "grows with chunks" true (one > base);
  let reuse = Shadow.create ~reuse:true () in
  Run_list.write_byte reuse ~ctx:1 ~call:1 ~now:0 addr;
  Alcotest.(check bool) "reuse mode costs more" true
    (Shadow.footprint_bytes reuse - base > one - base);
  Alcotest.(check int) "peak equals live here" (Shadow.footprint_bytes t)
    (Shadow.footprint_peak_bytes t)

let test_address_range_checked () =
  let t = Shadow.create () in
  Alcotest.check_raises "out of range" (Invalid_argument "Shadow: address out of range")
    (fun () -> ignore (Run_list.read_byte t ~ctx:1 ~call:1 ~now:0 Shadow.max_address));
  Alcotest.check_raises "negative" (Invalid_argument "Shadow: address out of range") (fun () ->
      Run_list.write_byte t ~ctx:1 ~call:1 ~now:0 (-1))

(* The shadow's telemetry and footprints, as one comparable string. *)
let accounting t =
  Printf.sprintf "%s footprint %d peak %d"
    (Telemetry.to_json (Telemetry.of_samples (Shadow.telemetry t)))
    (Shadow.footprint_bytes t) (Shadow.footprint_peak_bytes t)

(* [flush] unmaps the planes: a shadow spread over 256 chunks in 8
   superpages (each page alone holds 4096 words of slots) shrinks to an
   empty shadow's heap, in every mode, and no telemetry sample or
   footprint moves. *)
let test_flush_releases () =
  List.iter
    (fun (mode, reuse, track_writer_call) ->
      let mk () = Shadow.create ~reuse ~track_writer_call () in
      let empty = Obj.reachable_words (Obj.repr (mk ())) in
      let t = mk () in
      for k = 0 to 255 do
        let addr = ((k mod 8) lsl 24) + (k / 8 * Shadow.chunk_bytes) in
        Shadow.write_range t ~ctx:1 ~call:1 ~now:k addr 8;
        ignore (Run_list.read_range t ~ctx:2 ~call:1 ~now:k addr 8)
      done;
      let spread = Obj.reachable_words (Obj.repr t) in
      if spread < empty + (8 * 4096) then
        Alcotest.failf "%s: 256 chunks hold only %d words (empty %d)" mode spread empty;
      let before = accounting t in
      Shadow.flush t;
      Alcotest.(check string) (mode ^ ": telemetry and footprints unchanged") before (accounting t);
      let released = Obj.reachable_words (Obj.repr t) in
      if released > empty + 16 then
        Alcotest.failf "%s: a flushed shadow holds %d words, an empty one %d (%d before flush)" mode
          released empty spread)
    [ ("byte", false, false); ("events", false, true); ("reuse", true, false) ]

(* After [flush] the table starts over: bytes read as never touched, in
   fresh chunks that count on top of the released ones (allocated less
   evicted is still live), under the same FIFO limit, and a second flush
   reports nothing again. *)
let test_usable_after_flush () =
  let chunk = Shadow.chunk_bytes in
  let sink, episodes, versions = collecting () in
  let t = Shadow.create ~reuse:true ~max_chunks:2 ~sink () in
  for k = 0 to 3 do
    Run_list.write_byte t ~ctx:1 ~call:1 ~now:k (k * chunk)
  done;
  Alcotest.(check int) "two evictions" 2 (Shadow.evictions t);
  Shadow.flush t;
  let reported = (List.length !episodes, List.length !versions) in
  Alcotest.(check int) "producer forgotten" Dbi.Context.root (Run_list.producer t (3 * chunk));
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:5 (4 * chunk);
  Alcotest.(check int) "two mapped chunks fit the limit" 2 (Shadow.evictions t);
  Run_list.write_byte t ~ctx:1 ~call:1 ~now:6 (5 * chunk);
  Alcotest.(check int) "a third evicts" 3 (Shadow.evictions t);
  let tel = Telemetry.of_samples (Shadow.telemetry t) in
  let get = Telemetry.get_int tel in
  Alcotest.(check int) "released 2 + mapped 2" 4 (get "shadow.chunks_live");
  Alcotest.(check int) "allocated - evicted = live"
    (get "shadow.chunks_allocated" - get "shadow.evictions")
    (get "shadow.chunks_live");
  Alcotest.(check bool) "footprint within its peak" true
    (Shadow.footprint_bytes t <= Shadow.footprint_peak_bytes t);
  (* the byte read at chunk 3 went with the eviction; the second flush
     reports the two written bytes and none of the released ones *)
  Shadow.flush t;
  let reports () = (List.length !episodes, List.length !versions) in
  Alcotest.(check (pair int int)) "only bytes touched after the flush report"
    (fst reported + 1, snd reported + 3)
    (reports ());
  Shadow.flush t;
  Alcotest.(check (pair int int)) "a flush of a flushed table reports nothing"
    (fst reported + 1, snd reported + 3)
    (reports ())

let qcheck_last_writer_wins =
  QCheck.Test.make ~name:"producer is always the last writer" ~count:200
    QCheck.(list (pair (int_range 1 20) (int_range 0 4095)))
    (fun writes ->
      let t = Shadow.create () in
      let last = Hashtbl.create 16 in
      List.iter
        (fun (ctx, a) ->
          Run_list.write_byte t ~ctx ~call:1 ~now:0 a;
          Hashtbl.replace last a ctx)
        writes;
      Hashtbl.fold
        (fun a ctx ok ->
          ok
          &&
          let r = Run_list.read_byte t ~ctx:99 ~call:1 ~now:1 a in
          r.Run_list.producer = ctx)
        last true)

let () =
  Alcotest.run "shadow"
    [
      ( "shadow",
        [
          Alcotest.test_case "producer tracking" `Quick test_producer_tracking;
          Alcotest.test_case "never written = program input" `Quick
            test_never_written_is_program_input;
          Alcotest.test_case "nonunique same call" `Quick test_nonunique_same_call;
          Alcotest.test_case "reader alternation limitation" `Quick
            test_reader_alternation_limitation;
          Alcotest.test_case "write resets uniqueness" `Quick test_write_resets_uniqueness;
          Alcotest.test_case "producer call tracked" `Quick test_producer_call_tracked;
          Alcotest.test_case "episode reporting" `Quick test_episode_reporting;
          Alcotest.test_case "version on overwrite" `Quick test_version_reporting_on_overwrite;
          Alcotest.test_case "flush reports everything" `Quick test_flush_reports_everything;
          Alcotest.test_case "input version reported" `Quick test_input_version_reported;
          Alcotest.test_case "fifo eviction" `Quick test_fifo_eviction;
          Alcotest.test_case "eviction flushes stats" `Quick test_eviction_flushes_stats;
          Alcotest.test_case "footprint accounting" `Quick test_footprint_accounting;
          Alcotest.test_case "address range checked" `Quick test_address_range_checked;
          Alcotest.test_case "flush releases the chunks" `Quick test_flush_releases;
          Alcotest.test_case "usable after flush" `Quick test_usable_after_flush;
          QCheck_alcotest.to_alcotest qcheck_last_writer_wins;
        ] );
    ]
