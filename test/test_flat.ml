(* The profile of [body], run under Sigil alone. *)
let run_guest body =
  let tool = ref None in
  let _ =
    Dbi.Runner.run ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t = Sigil.Tool.create m in
            tool := Some t;
            Sigil.Tool.tool t);
        ]
      body
  in
  Sigil.Profile_io.snapshot_of_tool (Option.get !tool)

(* "kernel" runs in two contexts; context 2 reads what context 1 wrote, so
   the flat view must fold that edge into local traffic. *)
let two_contexts m =
  Dbi.Guest.call m "main" (fun () ->
      let a = Dbi.Guest.alloc m 64 in
      Dbi.Guest.call m "phase1" (fun () ->
          Dbi.Guest.call m "kernel" (fun () ->
              Dbi.Guest.iop m 10;
              Dbi.Guest.write m a 8));
      Dbi.Guest.call m "phase2" (fun () ->
          Dbi.Guest.call m "kernel" (fun () ->
              Dbi.Guest.iop m 20;
              Dbi.Guest.read m a 8)))

let find rows name = List.find (fun (r : Analysis.Flat.row) -> r.Analysis.Flat.name = name) rows

let test_contexts_merged () =
  let snap = run_guest two_contexts in
  let rows = Analysis.Flat.rows snap in
  let kernel = find rows "kernel" in
  Alcotest.(check int) "two contexts" 2 kernel.Analysis.Flat.contexts;
  Alcotest.(check int) "ops summed" 30 (kernel.Analysis.Flat.int_ops + kernel.Analysis.Flat.fp_ops);
  Alcotest.(check int) "calls summed" 2 kernel.Analysis.Flat.calls

let test_same_function_edge_is_local () =
  let snap = run_guest two_contexts in
  let kernel = find (Analysis.Flat.rows snap) "kernel" in
  Alcotest.(check int) "no cross-function input" 0 kernel.Analysis.Flat.input_total;
  Alcotest.(check int) "edge folded into local" 8 kernel.Analysis.Flat.local_total

let test_program_input_attributed () =
  let snap =
    run_guest (fun m ->
        Dbi.Guest.call m "main" (fun () ->
            Dbi.Guest.call m "reader" (fun () -> Dbi.Guest.read m 0x300000 8)))
  in
  let reader = find (Analysis.Flat.rows snap) "reader" in
  Alcotest.(check int) "program input is input" 8 reader.Analysis.Flat.input_unique

let test_sorted_by_ops () =
  let snap = run_guest two_contexts in
  match Analysis.Flat.rows snap with
  | first :: rest ->
    List.iter
      (fun (r : Analysis.Flat.row) ->
        Alcotest.(check bool) "descending ops" true
          (first.Analysis.Flat.int_ops + first.Analysis.Flat.fp_ops
          >= r.Analysis.Flat.int_ops + r.Analysis.Flat.fp_ops))
      rest
  | [] -> Alcotest.fail "no rows"

let render f =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_pp_output () =
  let snap = run_guest two_contexts in
  let out = render (fun ppf -> Analysis.Flat.pp ppf snap) in
  Alcotest.(check bool) "mentions kernel" true (contains out "kernel")

let test_calltree_rendering () =
  let snap = run_guest two_contexts in
  let out = render (fun ppf -> Analysis.Flat.calltree ppf snap) in
  Alcotest.(check bool) "root line" true (contains out "<root>");
  Alcotest.(check bool) "indented kernel" true (contains out "    kernel");
  Alcotest.(check bool) "inclusive ops on root" true (contains out "incl-ops=30")

let test_calltree_depth_limit () =
  let snap = run_guest two_contexts in
  let out = render (fun ppf -> Analysis.Flat.calltree ~max_depth:1 ppf snap) in
  Alcotest.(check bool) "kernel pruned" false (contains out "kernel");
  Alcotest.(check bool) "main kept" true (contains out "main")

let () =
  Alcotest.run "flat"
    [
      ( "flat",
        [
          Alcotest.test_case "contexts merged" `Quick test_contexts_merged;
          Alcotest.test_case "same-function edge is local" `Quick
            test_same_function_edge_is_local;
          Alcotest.test_case "program input attributed" `Quick test_program_input_attributed;
          Alcotest.test_case "sorted by ops" `Quick test_sorted_by_ops;
          Alcotest.test_case "pp output" `Quick test_pp_output;
          Alcotest.test_case "calltree rendering" `Quick test_calltree_rendering;
          Alcotest.test_case "calltree depth limit" `Quick test_calltree_depth_limit;
        ] );
    ]
