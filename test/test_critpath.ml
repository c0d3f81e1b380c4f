open Sigil

let call ctx call = Event_log.Call { ctx; call }
let ret ctx call = Event_log.Ret { ctx; call }
let comp ctx call ops = Event_log.Comp { ctx; call; int_ops = ops; fp_ops = 0 }

let xfer (src_ctx, src_call) (dst_ctx, dst_call) bytes =
  Event_log.Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes; unique_bytes = bytes }

let test_serial_chain () =
  (* second call of f consumes the first call's output: fully serial *)
  let t =
    Analysis.Critpath.analyze_stream
      (Helpers.stream_of
         [
           call 1 1; comp 1 1 10; ret 1 1;
           call 1 2; xfer (1, 1) (1, 2) 8; comp 1 2 10; ret 1 2;
         ])
  in
  Alcotest.(check int) "serial" 20 (Analysis.Critpath.serial_length t);
  Alcotest.(check int) "critical path" 20 (Analysis.Critpath.critical_path_length t);
  Alcotest.(check (float 1e-9)) "no parallelism" 1.0 (Analysis.Critpath.parallelism t)

let test_independent_calls_parallel () =
  let t =
    Analysis.Critpath.analyze_stream
      (Helpers.stream_of [ call 1 1; comp 1 1 10; ret 1 1; call 1 2; comp 1 2 10; ret 1 2 ])
  in
  Alcotest.(check int) "critical path one call" 10 (Analysis.Critpath.critical_path_length t);
  Alcotest.(check (float 1e-9)) "2x parallel" 2.0 (Analysis.Critpath.parallelism t)

let test_non_blocking_caller () =
  (* A(5) calls B(7); A resumes for 4 more ops without reading B's data:
     the resumption depends only on A's previous occurrence (Fig 3) *)
  let entries = [ call 1 1; comp 1 1 5; call 2 1; comp 2 1 7; ret 2 1; comp 1 1 4; ret 1 1 ] in
  let t = Analysis.Critpath.analyze_stream (Helpers.stream_of entries) in
  Alcotest.(check int) "serial" 16 (Analysis.Critpath.serial_length t);
  (* chains: A1(5)->B(12) and A1(5)->A2(9); B wins *)
  Alcotest.(check int) "critical path through B" 12 (Analysis.Critpath.critical_path_length t)

let test_data_dep_orders_caller () =
  (* same shape, but A's resumption consumes B's output *)
  let entries =
    [ call 1 1; comp 1 1 5; call 2 1; comp 2 1 7; ret 2 1;
      xfer (2, 1) (1, 1) 8; comp 1 1 4; ret 1 1 ]
  in
  let t = Analysis.Critpath.analyze_stream (Helpers.stream_of entries) in
  Alcotest.(check int) "fully serial now" 16 (Analysis.Critpath.critical_path_length t)

let test_occurrences_within_call_ordered () =
  (* one call split into two fragments by a child call: occurrence order
     is conservatively enforced even without data deps *)
  let entries =
    [ call 1 1; comp 1 1 6; call 2 1; ret 2 1; comp 1 1 6; ret 1 1 ]
  in
  let t = Analysis.Critpath.analyze_stream (Helpers.stream_of entries) in
  Alcotest.(check int) "both fragments chain" 12 (Analysis.Critpath.critical_path_length t)

let test_path_nodes_and_contexts () =
  let t =
    Analysis.Critpath.analyze_stream
      (Helpers.stream_of
         [
           call 1 1; comp 1 1 3;
           call 2 1; xfer (1, 1) (2, 1) 4; comp 2 1 5; ret 2 1;
           ret 1 1;
         ])
  in
  (match Analysis.Critpath.critical_path t with
  | path ->
    Alcotest.(check bool) "non-empty" true (List.length path >= 2);
    let last = List.nth path (List.length path - 1) in
    Alcotest.(check int) "leaf is ctx 2" 2 last.Analysis.Critpath.ctx;
    Alcotest.(check int) "leaf inclusive" 8 last.Analysis.Critpath.inclusive);
  match Analysis.Critpath.critical_path_contexts t with
  | leaf :: _ -> Alcotest.(check int) "leaf first" 2 leaf
  | [] -> Alcotest.fail "empty context path"

let test_unknown_producer_ignored () =
  (* transfers from evicted/unknown producers impose no ordering *)
  let t =
    Analysis.Critpath.analyze_stream
      (Helpers.stream_of [ call 1 1; xfer (99, 5) (1, 1) 8; comp 1 1 10; ret 1 1 ])
  in
  Alcotest.(check int) "runs fine" 10 (Analysis.Critpath.critical_path_length t)

let test_out_of_range_producer_ignored () =
  (* producer call numbers past 40 bits, or negative, name no call: they
     must not alias call (1, 1) when packed into a call key *)
  List.iter
    (fun src_call ->
      let stream =
        Helpers.stream_of
          [
            call 1 1; comp 1 1 10; ret 1 1;
            call 1 2; xfer (1, src_call) (1, 2) 8; comp 1 2 10; ret 1 2;
          ]
      in
      let name = Printf.sprintf "producer call %d" src_call in
      Alcotest.(check int) name 10
        (Analysis.Critpath.critical_path_length (Analysis.Critpath.analyze_stream stream));
      Alcotest.(check int) (name ^ ", summary") 10
        (Analysis.Critpath.summarize_stream stream).Analysis.Critpath.s_critical)
    [ (1 lsl 40) + 1; 1 - (1 lsl 40) ]

(* A context's calls live in blocks of 4096 lanes, and a row's spare
   spine slots point at a block that holds other calls: a producer past
   the calls seen must read as absent, whichever block its number
   falls in. Call 4097 is lane 1 of block 1, and so would call 8193 be
   through the spare slot 2. *)
let test_producer_past_calls_seen () =
  let calls = List.concat (List.init 4096 (fun i -> [ call 1 (i + 1); ret 1 (i + 1) ])) in
  let stream =
    Helpers.stream_of
      (calls
      @ [ call 1 4097; comp 1 4097 1000; ret 1 4097;
          call 2 1; xfer (1, 8193) (2, 1) 8; comp 2 1 5; ret 2 1 ])
  in
  Alcotest.(check int) "critical path" 1000
    (Analysis.Critpath.critical_path_length (Analysis.Critpath.analyze_stream stream));
  Alcotest.(check int) "summary" 1000
    (Analysis.Critpath.summarize_stream stream).Analysis.Critpath.s_critical

let test_mismatched_comp_rejected () =
  match Analysis.Critpath.analyze_stream (Helpers.stream_of [ call 1 1; comp 2 9 10 ]) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "accepted mismatched Comp"

let test_empty_log () =
  let t = Analysis.Critpath.analyze_stream (Helpers.stream_of []) in
  Alcotest.(check int) "zero serial" 0 (Analysis.Critpath.serial_length t);
  Alcotest.(check (float 1e-9)) "parallelism 1" 1.0 (Analysis.Critpath.parallelism t)

let test_node_count () =
  let t =
    Analysis.Critpath.analyze_stream
      (Helpers.stream_of [ call 1 1; comp 1 1 6; call 2 1; ret 2 1; comp 1 1 6; ret 1 1 ])
  in
  (* root fragment + A occ0 + B occ0 + A occ1 *)
  Alcotest.(check int) "four nodes" 4 (Analysis.Critpath.node_count t)

let test_schedule_one_core_serializes () =
  let t =
    Analysis.Critpath.analyze_stream
      (Helpers.stream_of [ call 1 1; comp 1 1 10; ret 1 1; call 1 2; comp 1 2 10; ret 1 2 ])
  in
  let s = Analysis.Critpath.schedule t ~cores:1 in
  Alcotest.(check int) "makespan = serial" (Analysis.Critpath.serial_length t)
    s.Analysis.Critpath.makespan;
  Alcotest.(check (float 1e-9)) "speedup 1" 1.0 s.Analysis.Critpath.speedup

let test_schedule_parallel_work () =
  let t =
    Analysis.Critpath.analyze_stream
      (Helpers.stream_of [ call 1 1; comp 1 1 10; ret 1 1; call 1 2; comp 1 2 10; ret 1 2 ])
  in
  let s = Analysis.Critpath.schedule t ~cores:2 in
  Alcotest.(check int) "two independent calls overlap" 10 s.Analysis.Critpath.makespan;
  Alcotest.(check (float 1e-9)) "speedup 2" 2.0 s.Analysis.Critpath.speedup

let test_schedule_respects_deps () =
  let t =
    Analysis.Critpath.analyze_stream
      (Helpers.stream_of
         [
           call 1 1; comp 1 1 10; ret 1 1;
           call 1 2; xfer (1, 1) (1, 2) 8; comp 1 2 10; ret 1 2;
         ])
  in
  let s = Analysis.Critpath.schedule t ~cores:8 in
  Alcotest.(check int) "dependency serializes" 20 s.Analysis.Critpath.makespan;
  (* a chain of 3000 calls, each consuming the previous one's output:
     thousands of nodes, scheduled in creation order *)
  let n = 3000 in
  let chain =
    List.concat
      (List.init n (fun i ->
           let c = i + 1 in
           (call 1 c :: (if c > 1 then [ xfer (1, c - 1) (1, c) 8 ] else []))
           @ [ comp 1 c 3; ret 1 c ]))
  in
  let t = Analysis.Critpath.analyze_stream (Helpers.stream_of chain) in
  (* each call closes an empty root fragment, then its own *)
  Alcotest.(check int) "chain nodes" (2 * n) (Analysis.Critpath.node_count t);
  let s = Analysis.Critpath.schedule t ~cores:8 in
  Alcotest.(check int) "long chain serializes" (3 * n) s.Analysis.Critpath.makespan

let test_schedule_bounds () =
  let t =
    Analysis.Critpath.analyze_stream
      (Helpers.stream_of
         [ call 1 1; comp 1 1 7; ret 1 1; call 2 1; comp 2 1 9; ret 2 1;
           call 3 1; comp 3 1 5; ret 3 1 ])
  in
  List.iter
    (fun cores ->
      let s = Analysis.Critpath.schedule t ~cores in
      Alcotest.(check bool) "makespan >= critical path" true
        (s.Analysis.Critpath.makespan >= Analysis.Critpath.critical_path_length t);
      Alcotest.(check bool) "speedup <= cores" true
        (s.Analysis.Critpath.speedup <= float_of_int cores +. 1e-9);
      Alcotest.(check bool) "utilization in (0,1]" true
        (s.Analysis.Critpath.utilization > 0.0 && s.Analysis.Critpath.utilization <= 1.0 +. 1e-9))
    (* past the node count, up to the largest count a caller can pass *)
    [ 1; 2; 4; 16; max_int ]

let test_schedule_cores_validated () =
  let t = Analysis.Critpath.analyze_stream (Helpers.stream_of []) in
  Alcotest.check_raises "zero cores" (Invalid_argument "Critpath.schedule: cores must be positive")
    (fun () -> ignore (Analysis.Critpath.schedule t ~cores:0))

(* Columns hold unsigned 32-bit lanes: a length of 2^32 - 2 reads back
   whole through every column (inclusive, latest, finish), and a Comp
   that takes the serial length to 2^32 fails where it arrives, in both
   passes, instead of wrapping. *)
let test_lane_bound () =
  let top = (1 lsl 32) - 2 in
  let fits =
    Helpers.stream_of [ call 1 1; comp 1 1 top; ret 1 1; call 1 2; xfer (1, 1) (1, 2) 8; ret 1 2 ]
  in
  let t = Analysis.Critpath.analyze_stream fits in
  Alcotest.(check int) "critical path" top (Analysis.Critpath.critical_path_length t);
  Alcotest.(check int) "summary" top
    (Analysis.Critpath.summarize_stream fits).Analysis.Critpath.s_critical;
  Alcotest.(check int) "makespan" top
    (Analysis.Critpath.schedule t ~cores:2).Analysis.Critpath.makespan;
  let past = Helpers.stream_of [ call 1 1; comp 1 1 10; call 2 1; comp 2 1 ((1 lsl 32) - 10); ret 2 1 ] in
  let expected =
    Failure
      "Critpath: entry 3: Comp past the 32-bit bound: expected a serial length below 4294967295, \
       found 4294967286 int and 0 fp ops at (ctx 2, call 1)"
  in
  Alcotest.check_raises "analyze" expected (fun () ->
      ignore (Analysis.Critpath.analyze_stream past));
  Alcotest.check_raises "summary" expected (fun () ->
      ignore (Analysis.Critpath.summarize_stream past));
  (* two counts whose sum wraps past max_int are refused too *)
  let wraps =
    Helpers.stream_of
      [ call 1 1; comp 1 1 5;
        Event_log.Comp { ctx = 1; call = 1; int_ops = max_int; fp_ops = max_int } ]
  in
  let expected =
    Failure
      (Printf.sprintf
         "Critpath: entry 2: Comp past the 32-bit bound: expected a serial length below \
          4294967295, found %d int and %d fp ops at (ctx 1, call 1)" max_int max_int)
  in
  Alcotest.check_raises "analyze, wrapping sum" expected (fun () ->
      ignore (Analysis.Critpath.analyze_stream wraps));
  Alcotest.check_raises "summary, wrapping sum" expected (fun () ->
      ignore (Analysis.Critpath.summarize_stream wraps))

let qcheck_parallelism_at_least_one =
  (* random well-formed single-level logs: parallelism >= 1 *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (pair (int_range 1 5) (int_range 0 50)))
  in
  QCheck.Test.make ~name:"parallelism >= 1" ~count:100 (QCheck.make gen) (fun calls ->
      let _, entries =
        List.fold_left
          (fun (counts, acc) (ctx, ops) ->
            let n = (try List.assoc ctx counts with Not_found -> 0) + 1 in
            let counts = (ctx, n) :: List.remove_assoc ctx counts in
            (counts, ret ctx n :: comp ctx n ops :: call ctx n :: acc))
          ([], []) calls
      in
      let t = Analysis.Critpath.analyze_stream (Helpers.stream_of (List.rev entries)) in
      Analysis.Critpath.parallelism t >= 1.0 -. 1e-9
      && Analysis.Critpath.critical_path_length t <= Analysis.Critpath.serial_length t)

let suite =
  ( "critpath",
    [
      ( "critpath",
        [
          Alcotest.test_case "serial chain" `Quick test_serial_chain;
          Alcotest.test_case "independent calls parallel" `Quick test_independent_calls_parallel;
          Alcotest.test_case "non-blocking caller" `Quick test_non_blocking_caller;
          Alcotest.test_case "data dep orders caller" `Quick test_data_dep_orders_caller;
          Alcotest.test_case "occurrences ordered" `Quick test_occurrences_within_call_ordered;
          Alcotest.test_case "path nodes and contexts" `Quick test_path_nodes_and_contexts;
          Alcotest.test_case "unknown producer ignored" `Quick test_unknown_producer_ignored;
          Alcotest.test_case "out-of-range producer ignored" `Quick
            test_out_of_range_producer_ignored;
          Alcotest.test_case "producer past the calls seen" `Quick test_producer_past_calls_seen;
          Alcotest.test_case "mismatched comp rejected" `Quick test_mismatched_comp_rejected;
          Alcotest.test_case "empty log" `Quick test_empty_log;
          Alcotest.test_case "node count" `Quick test_node_count;
          Alcotest.test_case "schedule one core" `Quick test_schedule_one_core_serializes;
          Alcotest.test_case "schedule parallel work" `Quick test_schedule_parallel_work;
          Alcotest.test_case "schedule respects deps" `Quick test_schedule_respects_deps;
          Alcotest.test_case "schedule bounds" `Quick test_schedule_bounds;
          Alcotest.test_case "schedule cores validated" `Quick test_schedule_cores_validated;
          Alcotest.test_case "32-bit lane bound" `Quick test_lane_bound;
          QCheck_alcotest.to_alcotest qcheck_parallelism_at_least_one;
        ] );
    ] )
