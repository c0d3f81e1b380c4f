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
  Option.get !tool

let toy m =
  Dbi.Guest.call m "main" (fun () ->
      let a = Dbi.Guest.alloc m 64 in
      Dbi.Guest.call m "producer" (fun () ->
          Dbi.Guest.iop m 5;
          Dbi.Guest.write_range m a 32);
      Dbi.Guest.call m "consumer" (fun () ->
          Dbi.Guest.read_range m a 32;
          Dbi.Guest.flop m 9))

let render_cdfg ?min_bytes ?max_nodes tool =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Analysis.Dot.cdfg ?min_bytes ?max_nodes (Sigil.Profile_io.snapshot_of_tool tool) ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_cdfg_structure () =
  let tool = run_guest toy in
  let dot = render_cdfg tool in
  Alcotest.(check bool) "digraph" true (contains dot "digraph cdfg");
  Alcotest.(check bool) "producer node" true (contains dot "producer");
  Alcotest.(check bool) "bold call edges" true (contains dot "style=bold");
  Alcotest.(check bool) "dashed data edge with weight" true (contains dot "style=dashed, label=\"32/32\"")

let test_cdfg_min_bytes_filter () =
  let tool = run_guest toy in
  let dot = render_cdfg ~min_bytes:1000 tool in
  Alcotest.(check bool) "data edge filtered" false (contains dot "style=dashed")

let test_cdfg_max_nodes_keeps_ancestors () =
  let tool =
    run_guest (fun m ->
        Dbi.Guest.call m "main" (fun () ->
            Dbi.Guest.call m "mid" (fun () ->
                Dbi.Guest.call m "hot" (fun () -> Dbi.Guest.iop m 1000))))
  in
  let dot = render_cdfg ~max_nodes:1 tool in
  (* keeping only the hottest leaf must still pull in its call chain *)
  Alcotest.(check bool) "hot kept" true (contains dot "hot");
  Alcotest.(check bool) "ancestor kept" true (contains dot "mid")

let test_save_files () =
  let tool = run_guest toy in
  let p1 = Filename.temp_file "cdfg" ".dot" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists p1 then Sys.remove p1)
    (fun () ->
      Analysis.Dot.save_cdfg (Sigil.Profile_io.snapshot_of_tool tool) p1;
      Alcotest.(check bool) "cdfg file non-empty" true ((Unix.stat p1).Unix.st_size > 0))

let test_name_escaping () =
  let tool =
    run_guest (fun m ->
        Dbi.Guest.call m "main" (fun () ->
            Dbi.Guest.call m "weird\"name\\fn" (fun () -> Dbi.Guest.iop m 5)))
  in
  let dot = render_cdfg tool in
  Alcotest.(check bool) "no raw quote in label" false (contains dot "weird\"name")

let () =
  Alcotest.run "dot"
    [
      ( "dot",
        [
          Alcotest.test_case "cdfg structure" `Quick test_cdfg_structure;
          Alcotest.test_case "min bytes filter" `Quick test_cdfg_min_bytes_filter;
          Alcotest.test_case "max nodes keeps ancestors" `Quick test_cdfg_max_nodes_keeps_ancestors;
          Alcotest.test_case "save files" `Quick test_save_files;
          Alcotest.test_case "name escaping" `Quick test_name_escaping;
        ] );
    ]
