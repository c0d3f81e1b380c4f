(* CDFG construction over a toy program shaped like the paper's Fig 1/2:
   main calls A and C; A calls B; data flows A->C and B->C across the
   A-subtree boundary. *)

let run_guest body =
  let sigil = ref None and cg = ref None in
  let r =
    Dbi.Runner.run ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t = Sigil.Tool.create m in
            sigil := Some t;
            Sigil.Tool.tool t);
          (fun m ->
            let t = Callgrind.Tool.create m in
            cg := Some t;
            Callgrind.Tool.tool t);
        ]
      body
  in
  (Option.get !sigil, Option.get !cg, r.Dbi.Runner.machine)

let find_ctx m path_wanted =
  let contexts = Dbi.Machine.contexts m in
  let names = Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts in
  let found = ref None in
  Dbi.Context.iter contexts (fun ctx ->
      if Dbi.Names.path names ctx = path_wanted then found := Some ctx);
  match !found with
  | Some ctx -> ctx
  | None -> Alcotest.failf "no context %s" path_wanted

let toy m =
  Dbi.Guest.call m "main" (fun () ->
      let buf = Dbi.Guest.alloc m 64 in
      Dbi.Guest.call m "A" (fun () ->
          Dbi.Guest.iop m 100;
          Dbi.Guest.write m buf 8;
          (* A -> C, crosses A's box *)
          Dbi.Guest.call m "B" (fun () ->
              Dbi.Guest.iop m 50;
              Dbi.Guest.write m (buf + 8) 8;
              (* B -> C, crosses too *)
              Dbi.Guest.write m (buf + 16) 8);
          Dbi.Guest.read m (buf + 16) 8 (* B -> A, internal to A's box *));
      Dbi.Guest.call m "C" (fun () ->
          Dbi.Guest.iop m 30;
          Dbi.Guest.read m buf 8;
          Dbi.Guest.read m (buf + 8) 8))

let build () =
  let sigil, cg, m = run_guest toy in
  (Analysis.Cdfg.build ~callgrind:cg sigil, m)

let test_inclusive_ops () =
  let cdfg, m = build () in
  let node path = Analysis.Cdfg.node cdfg (find_ctx m path) in
  Alcotest.(check int) "A self" 100 (node "main/A").Analysis.Cdfg.self_ops;
  Alcotest.(check int) "A inclusive" 150 (node "main/A").Analysis.Cdfg.incl_ops;
  Alcotest.(check int) "root inclusive" 180 (Analysis.Cdfg.root cdfg).Analysis.Cdfg.incl_ops

let test_crossing_edges () =
  let cdfg, m = build () in
  let node path = Analysis.Cdfg.node cdfg (find_ctx m path) in
  (* A's box: out-crossing bytes are A->C (8) and B->C (8); B->A stays in *)
  let a = node "main/A" in
  Alcotest.(check int) "A box output unique" 16 a.Analysis.Cdfg.incl_output_unique;
  Alcotest.(check int) "A box input" 0 a.Analysis.Cdfg.incl_input_unique;
  (* B's own box leaks both its writes: B->C and B->A *)
  let b = node "main/A/B" in
  Alcotest.(check int) "B box output unique" 16 b.Analysis.Cdfg.incl_output_unique;
  let c = node "main/C" in
  Alcotest.(check int) "C box input unique" 16 c.Analysis.Cdfg.incl_input_unique;
  Alcotest.(check int) "C box output" 0 c.Analysis.Cdfg.incl_output_unique

let test_internal_edges_absorbed () =
  let cdfg, m = build () in
  (* the main box contains every transfer: nothing crosses it except
     program I/O (none here) *)
  let main = Analysis.Cdfg.node cdfg (find_ctx m "main") in
  Alcotest.(check int) "main input" 0 main.Analysis.Cdfg.incl_input_unique;
  Alcotest.(check int) "main output" 0 main.Analysis.Cdfg.incl_output_unique

let test_cycles_from_callgrind () =
  let cdfg, _ = build () in
  (* with a callgrind table attached, cycles >= ops (misses only add) *)
  let root = Analysis.Cdfg.root cdfg in
  Alcotest.(check bool) "cycles >= ops" true
    (root.Analysis.Cdfg.incl_cycles >= root.Analysis.Cdfg.incl_ops);
  Alcotest.(check int) "total matches root" root.Analysis.Cdfg.incl_cycles
    (Analysis.Cdfg.total_cycles cdfg)

let test_without_callgrind_cycles_are_ops () =
  let sigil, _, _ = run_guest toy in
  let cdfg = Analysis.Cdfg.build sigil in
  let root = Analysis.Cdfg.root cdfg in
  Alcotest.(check int) "cycles = ops" root.Analysis.Cdfg.incl_ops root.Analysis.Cdfg.incl_cycles

let test_preorder_contexts () =
  let cdfg, _ = build () in
  match Analysis.Cdfg.contexts cdfg with
  | first :: rest ->
    Alcotest.(check int) "root first" Dbi.Context.root first;
    Alcotest.(check bool) "all nodes present" true (List.length rest >= 4)
  | [] -> Alcotest.fail "empty preorder"

let () =
  Alcotest.run "cdfg"
    [
      ( "cdfg",
        [
          Alcotest.test_case "inclusive ops" `Quick test_inclusive_ops;
          Alcotest.test_case "crossing edges" `Quick test_crossing_edges;
          Alcotest.test_case "internal edges absorbed" `Quick test_internal_edges_absorbed;
          Alcotest.test_case "cycles from callgrind" `Quick test_cycles_from_callgrind;
          Alcotest.test_case "without callgrind cycles=ops" `Quick
            test_without_callgrind_cycles_are_ops;
          Alcotest.test_case "preorder contexts" `Quick test_preorder_contexts;
        ] );
    ]
