(* Callgrind output-format writer + profile comparison. *)

let run_sigil body =
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

let run_callgrind body =
  let tool = ref None in
  let _ =
    Dbi.Runner.run ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t = Callgrind.Tool.create m in
            tool := Some t;
            Callgrind.Tool.tool t);
        ]
      body
  in
  Option.get !tool

let toy ops m =
  Dbi.Guest.call m "main" (fun () ->
      Dbi.Guest.call m "worker" (fun () ->
          Dbi.Guest.iop m ops;
          Dbi.Guest.read m 0x200000 8))

(* [output tool f] applies [Callgrind.Output.write] or [save] to the
   names, calls and costs of a Callgrind run without Sigil. *)
let output tool f =
  let m = Callgrind.Tool.machine tool in
  f
    (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m))
    ~calls:(fun ctx -> (Callgrind.Tool.cost tool ctx).Callgrind.Cost.calls)
    (Callgrind.Tool.costs tool)

let render_callgrind tool =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  output tool Callgrind.Output.write ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_callgrind_format_headers () =
  let tool = run_callgrind (toy 10) in
  let out = render_callgrind tool in
  Alcotest.(check bool) "version" true (Helpers.contains out "version: 1");
  Alcotest.(check bool) "events line" true
    (Helpers.contains out "events: Ir Dr Dw I1mr D1mr D1mw ILmr DLmr DLmw Bc Bcm");
  Alcotest.(check bool) "fn record" true (Helpers.contains out "fn=worker");
  Alcotest.(check bool) "call record" true (Helpers.contains out "cfn=worker");
  Alcotest.(check bool) "calls line" true (Helpers.contains out "calls=1")

let test_callgrind_format_costs () =
  let tool = run_callgrind (toy 10) in
  let out = render_callgrind tool in
  (* worker self: Ir = 10 ops + 1 read = 11, Dr = 1 *)
  Alcotest.(check bool) "worker self cost line" true (Helpers.contains out "11 1 0")

let test_callgrind_context_suffixes () =
  let tool =
    run_callgrind (fun m ->
        Dbi.Guest.call m "main" (fun () ->
            Dbi.Guest.call m "a" (fun () -> Dbi.Guest.call m "k" (fun () -> Dbi.Guest.iop m 1));
            Dbi.Guest.call m "b" (fun () -> Dbi.Guest.call m "k" (fun () -> Dbi.Guest.iop m 2))))
  in
  let out = render_callgrind tool in
  Alcotest.(check bool) "first context plain" true (Helpers.contains out "fn=k\n");
  Alcotest.(check bool) "second context suffixed" true (Helpers.contains out "fn=k'ctx1")

let test_callgrind_save () =
  let tool = run_callgrind (toy 10) in
  let path = Filename.temp_file "callgrind" ".out" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      output tool Callgrind.Output.save path;
      Alcotest.(check bool) "file non-empty" true ((Unix.stat path).Unix.st_size > 100))

let snapshot body = Sigil.Profile_io.snapshot_of_tool (run_sigil body)
let diff a b = Analysis.Compare.diff_many ~before:[ a ] ~after:[ b ]

let test_compare_same () =
  let a = snapshot (toy 10) and b = snapshot (toy 10) in
  let diff = diff a b in
  List.iter
    (fun (d : Analysis.Compare.delta) ->
      Alcotest.(check bool) ("same " ^ d.Analysis.Compare.key) true
        (d.Analysis.Compare.status = `Same))
    (diff.paths @ diff.edges);
  Alcotest.(check bool) "nothing changed" true
    (Analysis.Compare.is_empty (Analysis.Compare.changed diff))

let test_compare_changed () =
  let a = snapshot (toy 10) and b = snapshot (toy 50) in
  let changed = (Analysis.Compare.changed (diff a b)).paths in
  match List.find_opt (fun (d : Analysis.Compare.delta) -> d.Analysis.Compare.key = "main/worker") changed with
  | Some d ->
    Alcotest.(check int) "ops before" 10 d.Analysis.Compare.before;
    Alcotest.(check int) "ops after" 50 d.Analysis.Compare.after;
    Alcotest.(check bool) "status changed" true (d.Analysis.Compare.status = `Changed)
  | None -> Alcotest.fail "worker delta missing"

let test_compare_added_removed () =
  let a = snapshot (toy 10) in
  let b =
    snapshot (fun m ->
        Dbi.Guest.call m "main" (fun () ->
            Dbi.Guest.call m "newcomer" (fun () -> Dbi.Guest.iop m 5)))
  in
  let deltas = (diff a b).paths in
  let by_path p =
    List.find (fun (d : Analysis.Compare.delta) -> d.Analysis.Compare.key = p) deltas
  in
  Alcotest.(check bool) "worker removed" true ((by_path "main/worker").Analysis.Compare.status = `Removed);
  Alcotest.(check bool) "newcomer added" true ((by_path "main/newcomer").Analysis.Compare.status = `Added)

let test_compare_sorted_by_magnitude () =
  let a = snapshot (toy 10) and b = snapshot (toy 5000) in
  match (Analysis.Compare.changed (diff a b)).paths with
  | first :: _ ->
    Alcotest.(check string) "biggest mover first" "main/worker" first.Analysis.Compare.key
  | [] -> Alcotest.fail "no changes"

(* Two profiles whose contexts agree and whose edges do not: the diff has
   no path row but one removed edge row, keyed by both call paths. *)
let test_compare_edges_only () =
  let a =
    snapshot (fun m ->
        Dbi.Guest.call m "main" (fun () ->
            let buf = Dbi.Guest.alloc m 64 in
            Dbi.Guest.call m "producer" (fun () -> Dbi.Guest.write_range m buf 64);
            Dbi.Guest.call m "consumer" (fun () -> Dbi.Guest.read_range m buf 64)))
  in
  let b =
    Sigil.Profile_io.make ~names:(Sigil.Profile_io.names a)
      ~contexts:(Sigil.Profile_io.contexts a) ~edges:[] ~costs:None ~reuse:None
  in
  let diff = Analysis.Compare.changed (diff a b) in
  Alcotest.(check int) "no path changed" 0 (List.length diff.paths);
  match diff.edges with
  | [ d ] ->
    Alcotest.(check string) "edge key" "main/producer -> main/consumer" d.Analysis.Compare.key;
    Alcotest.(check (pair int int)) "bytes before/after" (64, 0) (d.before, d.after);
    Alcotest.(check bool) "removed" true (d.status = `Removed)
  | rows -> Alcotest.failf "expected one removed edge, got %d rows" (List.length rows)

(* ---------------------------------------------------------------- *)
(* Report goldens                                                   *)
(* ---------------------------------------------------------------- *)

(* [cli_output name args] is the stdout of CLI [name] run with [args]. *)
let cli_output name args =
  let out = Filename.temp_file name ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s" (Filename.quote (Cli.exe name)) args (Filename.quote out))
      in
      if code <> 0 then Alcotest.failf "%s %s exited %d" name args code;
      In_channel.with_open_bin out In_channel.input_all)

let md5 s = Digest.to_hex (Digest.string s)

(* Edges of equal weight may print in any order, so the edge listing and
   the DOT file are pinned by their sorted lines. *)
let sorted_md5 s = md5 (String.concat "\n" (List.sort compare (String.split_on_char '\n' s)))

(* The MD5s of the simsmall reports: [sigil_run W], with [--flat], with
   [--tree], [sigil_partition W] and [sigil_reuse W]; then the sorted
   lines of [sigil_run W --edges] and of the [--dot] file. *)
let report_goldens =
  [
    ( "canneal",
      [
        "a3c36161a9433cffd297bd71a71b6657";
        "02f3190404ec8b90b09dc569fea2f9a9";
        "51de84e64f7e3a061f98e51ea8862e7c";
        "1dff437f5f521311e5f85feb65f03f9b";
        "7324a5638efb65a7088bcb21104655c2";
        "6ea789b2b35d0a4d07a380cec4c297ab";
        "d7d6f7fbc5433943f3a13d45c80affe6";
      ] );
    ( "dedup",
      [
        "70e64973fe92356cfee511d9754d31e6";
        "b6dbced5a7479adc9c182a545bb2607a";
        "d6a0149ffbbb926be7c680e108ac08af";
        "9b03a8b6d703e2633c8bc3e3990b054e";
        "ba661d1c27ad092564f01ba8db99f71d";
        "389b6d126e3011a3ff87124796780874";
        "bcbfdb2a57233630dc06b32c03e3f8b3";
      ] );
    ( "vips",
      [
        "24feb13fca0e4a81ddb622d647f49f94";
        "42e51073d9c698506c9ecea0cbffcbc2";
        "f511852811ca024d3bd9fdda1d5cde9f";
        "b64db1d73ea833df59eafcfb39051009";
        "d8a339f30ac3f9683a830a6020c7dfca";
        "08ad00a7cb60a2387e3136e22ed9d706";
        "bd64c0dfffea4b37b16132c828995687";
      ] );
  ]

let test_report_goldens () =
  List.iter
    (fun (name, want) ->
      let dot = Filename.temp_file name ".dot" in
      let dot_lines =
        Fun.protect
          ~finally:(fun () -> Sys.remove dot)
          (fun () ->
            ignore (cli_output "sigil_run" (name ^ " --dot " ^ Filename.quote dot));
            In_channel.with_open_bin dot In_channel.input_all)
      in
      let got =
        [
          md5 (cli_output "sigil_run" name);
          md5 (cli_output "sigil_run" (name ^ " --flat"));
          md5 (cli_output "sigil_run" (name ^ " --tree"));
          md5 (cli_output "sigil_partition" name);
          md5 (cli_output "sigil_reuse" name);
          sorted_md5 (cli_output "sigil_run" (name ^ " --edges"));
          sorted_md5 dot_lines;
        ]
      in
      Alcotest.(check (list string)) (name ^ " reports") want got)
    report_goldens

let suite =
  ( "output_compare",
    [
      ( "callgrind_output",
        [
          Alcotest.test_case "format headers" `Quick test_callgrind_format_headers;
          Alcotest.test_case "format costs" `Quick test_callgrind_format_costs;
          Alcotest.test_case "context suffixes" `Quick test_callgrind_context_suffixes;
          Alcotest.test_case "save" `Quick test_callgrind_save;
        ] );
      ( "compare",
        [
          Alcotest.test_case "same" `Quick test_compare_same;
          Alcotest.test_case "changed" `Quick test_compare_changed;
          Alcotest.test_case "added and removed" `Quick test_compare_added_removed;
          Alcotest.test_case "sorted by magnitude" `Quick test_compare_sorted_by_magnitude;
          Alcotest.test_case "edges only" `Quick test_compare_edges_only;
        ] );
      ("goldens", [ Alcotest.test_case "reports" `Quick test_report_goldens ]);
    ] )
