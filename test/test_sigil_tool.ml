(* End-to-end checks: a toy guest program with hand-computed communication,
   run under the full Sigil tool. Call overhead is disabled so operation
   counts are exact. *)

let run_guest ?(options = Sigil.Options.default) ?event_sink body =
  let tool = ref None in
  let r =
    Dbi.Runner.run ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t = Sigil.Tool.create ~options ?event_sink m in
            tool := Some t;
            Sigil.Tool.tool t);
        ]
      body
  in
  (Option.get !tool, r.Dbi.Runner.machine)

(* [run_guest] in events mode, with the entries the tool streamed out, in
   order *)
let run_events body =
  let log = ref [] in
  let tool, m =
    run_guest ~options:Sigil.Options.(with_events default)
      ~event_sink:(fun e -> log := Sigil.Event_log.copy e :: !log)
      body
  in
  (tool, m, List.rev !log)

(* main writes 8 bytes, producer writes 16 more; consumer reads all 24,
   re-reads main's 8, and writes + reads back 8 of its own. *)
let toy m =
  Dbi.Guest.call m "main" (fun () ->
      let a = Dbi.Guest.alloc m 64 in
      Dbi.Guest.write m a 8;
      Dbi.Guest.call m "producer" (fun () ->
          Dbi.Guest.iop m 5;
          Dbi.Guest.write m (a + 8) 8;
          Dbi.Guest.write m (a + 16) 8);
      Dbi.Guest.call m "consumer" (fun () ->
          Dbi.Guest.read m a 8;
          Dbi.Guest.read m (a + 8) 8;
          Dbi.Guest.read m (a + 16) 8;
          Dbi.Guest.read m a 8;
          (* re-read: non-unique *)
          Dbi.Guest.flop m 7;
          Dbi.Guest.write m (a + 24) 8;
          Dbi.Guest.read m (a + 24) 8 (* local *)))

let test_classification_exact () =
  let tool, m = run_guest toy in
  let p = Sigil.Tool.profile tool in
  let s = Sigil.Profile.stats p (Helpers.find_ctx m "main/consumer") in
  Alcotest.(check int) "input unique" 24 s.Sigil.Profile.input_unique;
  Alcotest.(check int) "input nonunique" 8 s.Sigil.Profile.input_nonunique;
  Alcotest.(check int) "local unique" 8 s.Sigil.Profile.local_unique;
  Alcotest.(check int) "local nonunique" 0 s.Sigil.Profile.local_nonunique;
  Alcotest.(check int) "written" 8 s.Sigil.Profile.written;
  Alcotest.(check int) "fp ops" 7 s.Sigil.Profile.fp_ops;
  let sp = Sigil.Profile.stats p (Helpers.find_ctx m "main/producer") in
  Alcotest.(check int) "producer writes" 16 sp.Sigil.Profile.written;
  Alcotest.(check int) "producer int ops" 5 sp.Sigil.Profile.int_ops

let test_edges_exact () =
  let tool, m = run_guest toy in
  let snap = Sigil.Profile_io.snapshot_of_tool tool in
  let consumer = Helpers.find_ctx m "main/consumer" in
  let producer = Helpers.find_ctx m "main/producer" in
  let main = Helpers.find_ctx m "main" in
  let edge src =
    List.find
      (fun (e : Sigil.Profile_io.edge) -> e.src = src && e.dst = consumer)
      (Sigil.Profile_io.edges snap)
  in
  Alcotest.(check (pair int int)) "main->consumer (total, unique)" (16, 8)
    ((edge main).bytes, (edge main).unique_bytes);
  Alcotest.(check (pair int int)) "producer->consumer" (16, 16)
    ((edge producer).bytes, (edge producer).unique_bytes);
  Alcotest.(check (pair int int)) "producer output" (16, 16)
    (Sigil.Profile_io.output_bytes snap producer);
  Alcotest.(check (pair int int)) "consumer input" (32, 24)
    (Sigil.Profile_io.input_bytes snap consumer)

let test_reuse_bins_exact () =
  let tool, _ = run_guest ~options:Sigil.Options.(with_reuse default) toy in
  let bins = Sigil.Reuse.version_bins (Sigil.Tool.reuse tool) in
  (* 16 producer bytes + 8 local bytes read once; 8 main bytes re-read *)
  Alcotest.(check int) "zero reuse" 24 bins.Sigil.Reuse.zero;
  Alcotest.(check int) "low reuse" 8 bins.Sigil.Reuse.low;
  Alcotest.(check int) "high reuse" 0 bins.Sigil.Reuse.high

let test_event_log_structure () =
  let _, m, entries = run_events toy in
  let consumer = Helpers.find_ctx m "main/consumer" in
  let producer = Helpers.find_ctx m "main/producer" in
  let main = Helpers.find_ctx m "main" in
  let xfers =
    List.filter_map
      (function
        | Sigil.Event_log.Xfer { src_ctx; dst_ctx; bytes; unique_bytes; _ }
          when dst_ctx = consumer ->
          Some (src_ctx, bytes, unique_bytes)
        | Sigil.Event_log.Xfer _ | Sigil.Event_log.Call _ | Sigil.Event_log.Ret _
        | Sigil.Event_log.Comp _ ->
          None)
      entries
  in
  Alcotest.(check int) "two transfer edges into consumer" 2 (List.length xfers);
  Alcotest.(check bool) "from main" true (List.mem (main, 16, 8) xfers);
  Alcotest.(check bool) "from producer" true (List.mem (producer, 16, 16) xfers);
  (* calls and returns are balanced *)
  let calls, rets =
    List.fold_left
      (fun (c, r) -> function
        | Sigil.Event_log.Call _ -> (c + 1, r)
        | Sigil.Event_log.Ret _ -> (c, r + 1)
        | Sigil.Event_log.Comp _ | Sigil.Event_log.Xfer _ -> (c, r))
      (0, 0) entries
  in
  Alcotest.(check int) "balanced" calls rets;
  Alcotest.(check int) "three calls" 3 calls

(* The tool keeps no entries, so events mode without a sink is refused;
   a sink alone turns events on. *)
let test_events_need_a_sink () =
  let options = Sigil.Options.(with_events default) in
  Alcotest.check_raises "collect_events without a sink"
    (Invalid_argument "Sigil.Tool.create: collect_events needs an event_sink") (fun () ->
      ignore (Sigil.Tool.create ~options (Dbi.Machine.create ())));
  let seen = ref 0 in
  let _ = run_guest ~event_sink:(fun _ -> incr seen) toy in
  Alcotest.(check bool) "a sink without the option receives entries" true (!seen > 0)

(* The per-byte engine is gone: a set [per_byte_shadow] fails loudly
   instead of running the range engine under its name. *)
let test_per_byte_refused () =
  let options = { Sigil.Options.default with per_byte_shadow = true } in
  Alcotest.check_raises "per_byte_shadow"
    (Invalid_argument "Sigil.Tool.create: per_byte_shadow is no longer supported") (fun () ->
      ignore (Sigil.Tool.create ~options (Dbi.Machine.create ())))

let test_same_function_cross_call_edge () =
  (* a function consuming data from an earlier call of itself produces a
     dependency edge in the event log but local bytes in the profile *)
  let body m =
    Dbi.Guest.call m "main" (fun () ->
        let a = Dbi.Guest.alloc m 16 in
        Dbi.Guest.call m "iter" (fun () -> Dbi.Guest.write m a 8);
        Dbi.Guest.call m "iter" (fun () ->
            Dbi.Guest.read m a 8;
            Dbi.Guest.write m a 8))
  in
  let tool, m, entries = run_events body in
  let iter_ctx = Helpers.find_ctx m "main/iter" in
  let p = Sigil.Tool.profile tool in
  let s = Sigil.Profile.stats p iter_ctx in
  Alcotest.(check int) "classified local" 8 s.Sigil.Profile.local_unique;
  let self_edges =
    List.filter
      (function
        | Sigil.Event_log.Xfer { src_ctx; dst_ctx; src_call; dst_call; _ } ->
          src_ctx = iter_ctx && dst_ctx = iter_ctx && src_call <> dst_call
        | Sigil.Event_log.Call _ | Sigil.Event_log.Ret _ | Sigil.Event_log.Comp _ -> false)
      entries
  in
  Alcotest.(check int) "cross-call self edge" 1 (List.length self_edges)

(* Line mode listens to reads and writes only: even with an event sink
   it emits nothing, and the byte shadow and profile stay untouched. *)
let test_line_mode () =
  let body m =
    Dbi.Guest.call m "main" (fun () ->
        let a = Dbi.Guest.alloc m 256 in
        Dbi.Guest.write m a 8;
        for _ = 1 to 3 do
          Dbi.Guest.read m a 8
        done;
        Dbi.Guest.call m "f" (fun () -> Dbi.Guest.iop m 5);
        Dbi.Guest.read m (a + 128) 8)
  in
  let entries = ref 0 in
  let tool, _ =
    run_guest ~options:Sigil.Options.(with_line_size default 64)
      ~event_sink:(fun _ -> incr entries)
      body
  in
  match Sigil.Tool.line_shadow tool with
  | None -> Alcotest.fail "line mode not active"
  | Some line ->
    Alcotest.(check int) "two lines touched" 2 (Sigil.Line_shadow.lines line);
    Alcotest.(check int) "no entry reaches the sink" 0 !entries;
    let telemetry = Telemetry.of_samples (Sigil.Tool.telemetry tool) in
    List.iter
      (fun name -> Alcotest.(check int) name 0 (Telemetry.get_int telemetry name))
      [ "events.dispatched"; "shadow.range_reads"; "shadow.range_writes" ];
    (* line mode replaces function aggregation *)
    Alcotest.(check (list int)) "no byte profile" []
      (Sigil.Profile.contexts (Sigil.Tool.profile tool))

let test_memory_limit_accuracy_loss () =
  let body m =
    Dbi.Guest.call m "main" (fun () ->
        let chunk = Sigil.Shadow.chunk_bytes in
        let a = Dbi.Guest.alloc m (4 * chunk) in
        Dbi.Guest.call m "producer" (fun () -> Dbi.Guest.write m a 8);
        (* touch three more chunks to push the first out *)
        Dbi.Guest.call m "toucher" (fun () ->
            Dbi.Guest.write m (a + chunk) 8;
            Dbi.Guest.write m (a + (2 * chunk)) 8;
            Dbi.Guest.write m (a + (3 * chunk)) 8);
        Dbi.Guest.call m "consumer" (fun () -> Dbi.Guest.read m a 8))
  in
  let tool, m = run_guest ~options:Sigil.Options.(with_max_chunks default 2) body in
  Alcotest.(check bool) "evictions happened" true (Sigil.Tool.shadow_evictions tool > 0);
  (* the read of the evicted byte is misattributed to program input *)
  let consumer = Helpers.find_ctx m "main/consumer" in
  let snap = Sigil.Profile_io.snapshot_of_tool tool in
  let into_consumer (e : Sigil.Profile_io.edge) = e.dst = consumer in
  match List.filter into_consumer (Sigil.Profile_io.edges snap) with
  | [ e ] -> Alcotest.(check int) "producer forgotten" Dbi.Context.root e.src
  | edges -> Alcotest.failf "expected one edge, got %d" (List.length edges)

(* The records the report prints, found by their call path. *)
let test_report_rows () =
  let tool, _ = run_guest toy in
  let snap = Sigil.Profile_io.snapshot_of_tool tool in
  let rows = Sigil.Profile_io.active_contexts snap in
  Alcotest.(check bool) "has rows" true (List.length rows >= 3);
  let consumer =
    List.find
      (fun (s : Sigil.Profile_io.ctx_stats) -> Sigil.Profile_io.path snap s.ctx = "main/consumer")
      rows
  in
  Alcotest.(check int) "row input unique" 24 consumer.input_unique;
  Alcotest.(check int) "row input total" 32 (consumer.input_unique + consumer.input_nonunique)

let test_stripped_run_still_works () =
  let tool = ref None in
  let r =
    Dbi.Runner.run ~stripped:true ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t = Sigil.Tool.create m in
            tool := Some t;
            Sigil.Tool.tool t);
        ]
      toy
  in
  let snap = Sigil.Profile_io.snapshot_of_tool (Option.get !tool) in
  let rows = Sigil.Profile_io.active_contexts snap in
  Alcotest.(check bool) "rows exist" true (List.length rows >= 3);
  List.iter
    (fun (s : Sigil.Profile_io.ctx_stats) ->
      let path = Sigil.Profile_io.path snap s.ctx in
      Alcotest.(check bool) "names degraded" true
        (path = "<root>" || (String.length path >= 4 && String.sub path 0 4 = "???:")))
    rows;
  ignore r

(* A recursive guest function 300 calls deep, entered twice so the
   second descent runs every context's second call. Each level reads its
   caller's slot and, after the recursive call returns, its callee's slot,
   so transfers cross many calls, and after every return the open
   fragment passes back to a caller, whose call the tool reads from the
   machine. The name recalls the pool of per-depth frames the tool once
   kept; the goldens predate it and still hold without it. *)
let recursion_depth = 300

let deep_recursion m =
  Dbi.Guest.call m "main" (fun () ->
      let slots = Dbi.Guest.alloc m (8 * (recursion_depth + 2)) in
      let slot d = slots + (8 * d) in
      Dbi.Guest.write m (slot 0) 8;
      let rec descend d =
        Dbi.Guest.call m "rec" (fun () ->
            Dbi.Guest.read m (slot (d - 1)) 8;
            Dbi.Guest.iop m 3;
            Dbi.Guest.write m (slot d) 8;
            if d < recursion_depth then begin
              descend (d + 1);
              Dbi.Guest.read m (slot (d + 1)) 8;
              Dbi.Guest.write m (slot (d + 1)) 8
            end;
            Dbi.Guest.flop m 2)
      in
      descend 1;
      Dbi.Guest.read m (slot 1) 8;
      descend 1;
      Dbi.Guest.read_range m slots (8 * (recursion_depth + 1)))

(* Pinned before the tool's call stack became a pool of reusable frames:
   MD5 and length of the canonical profile rendering and of the text
   event stream. *)
let deep_profile_golden = ("357cdbc0ed64ef6ba4aa3e354dadd3cf", 23218)
let deep_events_golden = ("92f93af9d9c98ccf338bada1e82adff4", 48549)

let test_frame_pool_deep_recursion () =
  let tool = ref None and log = ref [] in
  let _ =
    Dbi.Runner.run ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t =
              Sigil.Tool.create ~options:Sigil.Options.(with_events default)
                ~event_sink:(fun e -> log := Sigil.Event_log.copy e :: !log)
                m
            in
            tool := Some t;
            let hooks = Sigil.Tool.tool t in
            (* an unbalanced leave at the root is ignored: no Ret *)
            hooks.Dbi.Tool.on_leave ~ctx:Dbi.Context.root ~fn:0;
            hooks);
        ]
      deep_recursion
  in
  let tool = Option.get !tool in
  let digest s = (Digest.to_hex (Digest.string s), String.length s) in
  Alcotest.(check (pair string int))
    "profile unchanged" deep_profile_golden
    (digest (Sigil.Profile_io.to_string tool));
  let entries = List.rev !log in
  Alcotest.(check (pair string int))
    "event stream unchanged" deep_events_golden
    (digest (String.concat "\n" (List.map Sigil.Event_log.entry_to_string entries)));
  (* well nested: every Call has its Ret, and fragments and transfers
     belong to the innermost open call (the root outside every call) *)
  let stack = ref [] in
  let innermost () = match !stack with top :: _ -> top | [] -> (Dbi.Context.root, 0) in
  List.iter
    (function
      | Sigil.Event_log.Call { ctx; call } -> stack := (ctx, call) :: !stack
      | Sigil.Event_log.Ret { ctx; call } -> (
        match !stack with
        | top :: rest when top = (ctx, call) -> stack := rest
        | _ -> Alcotest.failf "Ret (%d, %d) does not close the innermost call" ctx call)
      | Sigil.Event_log.Comp { ctx; call; _ } ->
        Alcotest.(check (pair int int)) "Comp in the innermost call" (innermost ()) (ctx, call)
      | Sigil.Event_log.Xfer { dst_ctx; dst_call; _ } ->
        Alcotest.(check (pair int int))
          "Xfer into the innermost call" (innermost ())
          (dst_ctx, dst_call))
    entries;
  Alcotest.(check int) "every Call returned" 0 (List.length !stack);
  let calls =
    List.length (List.filter (function Sigil.Event_log.Call _ -> true | _ -> false) entries)
  in
  Alcotest.(check int) "calls" ((2 * recursion_depth) + 1) calls

(* The Sigil hot path allocates nothing per event in byte, reuse and line
   modes: a Sigil-only run allocates what a no-op tool run does, up to
   per-context records, chunk planes and table growth. Events mode has a
   bound of its own, "events allocation bound". *)
let test_allocation_bound () =
  let modes =
    Sigil.Options.
      [
        ("byte", default);
        ("reuse", with_reuse default);
        ("line", with_line_size default 64);
      ]
  in
  List.iter
    (fun name ->
      let w = Result.get_ok (Workloads.Suite.find name) in
      let words tool =
        let before = Gc.minor_words () in
        let r =
          Dbi.Runner.run ~tools:[ tool ] (fun m ->
              w.Workloads.Workload.run m Workloads.Scale.Simsmall)
        in
        (Gc.minor_words () -. before, Dbi.Machine.now r.Dbi.Runner.machine)
      in
      let nop, instr = words (fun _ -> Dbi.Tool.nop "nop") in
      List.iter
        (fun (mode, options) ->
          let sigil, instr' = words (fun m -> Sigil.Tool.tool (Sigil.Tool.create ~options m)) in
          Alcotest.(check int) (Printf.sprintf "%s %s same instructions" name mode) instr instr';
          let per_instr = (sigil -. nop) /. float_of_int instr in
          if per_instr > 0.1 then
            Alcotest.failf "%s %s: Sigil allocates %.4f words per instruction (bound 0.1)" name mode
              per_instr)
        modes)
    [ "canneal"; "dedup"; "vips"; "bodytrack" ]

(* Events mode allocates nothing per entry: the fragment flush
   accumulates transfers in pooled int arrays, and the tool lends the
   sink one reused entry per constructor. Measured against a byte-mode
   run of the same workload (which "allocation bound" covers), a
   Sigil-only run into a sink that drops every entry may allocate only
   two costs that are not per entry: the writer-call plane each shadow
   chunk adds when events are on (a u32 plane of two Bigarray headers, 23
   words a chunk on dedup), and 2048 words per run. Those cover the
   scratch entries and sink wrapper built once, and the transfer
   accumulator's doublings from 16 to 256 slots: 1,696 words once a
   fragment reads from more than 64 producer calls, as on canneal (a
   larger accumulator is allocated in the major heap). *)
let test_events_allocation_bound () =
  List.iter
    (fun name ->
      let w = Result.get_ok (Workloads.Suite.find name) in
      let words options sink =
        let tool = ref None in
        let before = Gc.minor_words () in
        let _ =
          Dbi.Runner.run
            ~tools:
              [
                (fun m ->
                  let t = Sigil.Tool.create ~options ?event_sink:sink m in
                  tool := Some t;
                  Sigil.Tool.tool t);
              ]
            (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall)
        in
        let words = Gc.minor_words () -. before in
        let snapshot = Telemetry.of_samples (Sigil.Tool.telemetry (Option.get !tool)) in
        (words, Telemetry.get_int snapshot "shadow.chunks_allocated")
      in
      let byte, _ = words Sigil.Options.default None in
      let entries = ref 0 in
      let sink (_ : Sigil.Event_log.entry) = incr entries in
      let events, chunks = words Sigil.Options.(with_events default) (Some sink) in
      let bound = float_of_int ((32 * chunks) + 2048) in
      if events -. byte > bound then
        Alcotest.failf
          "%s events: Sigil allocates %.0f words beyond byte mode for %d entries and %d chunks \
           (bound %.0f)"
          name (events -. byte) !entries chunks bound)
    [ "canneal"; "dedup"; "vips"; "bodytrack" ]

let suite =
  ( "sigil_tool",
    [
      ( "sigil_tool",
        [
          Alcotest.test_case "classification exact" `Quick test_classification_exact;
          Alcotest.test_case "edges exact" `Quick test_edges_exact;
          Alcotest.test_case "reuse bins exact" `Quick test_reuse_bins_exact;
          Alcotest.test_case "event log structure" `Quick test_event_log_structure;
          Alcotest.test_case "events need a sink" `Quick test_events_need_a_sink;
          Alcotest.test_case "per-byte shadow refused" `Quick test_per_byte_refused;
          Alcotest.test_case "same-fn cross-call edge" `Quick test_same_function_cross_call_edge;
          Alcotest.test_case "line mode" `Quick test_line_mode;
          Alcotest.test_case "memory limit accuracy loss" `Quick test_memory_limit_accuracy_loss;
          Alcotest.test_case "report rows" `Quick test_report_rows;
          Alcotest.test_case "stripped run still works" `Quick test_stripped_run_still_works;
          Alcotest.test_case "frame pool deep recursion" `Quick test_frame_pool_deep_recursion;
          Alcotest.test_case "allocation bound" `Quick test_allocation_bound;
          Alcotest.test_case "events allocation bound" `Quick test_events_allocation_bound;
        ] );
    ] )
