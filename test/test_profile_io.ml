(* Saved profiles must reload to exactly the live run's data, dump to its
   text rendering, and fail on damage as one located error. *)

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
      Dbi.Guest.call m "operator new" (fun () -> Dbi.Guest.iop m 7);
      Dbi.Guest.call m "producer" (fun () -> Dbi.Guest.write_range m a 32);
      Dbi.Guest.call m "consumer" (fun () ->
          Dbi.Guest.read_range m a 32;
          Dbi.Guest.read_range m a 32;
          Dbi.Guest.flop m 9))

let save ?(workload = "toy") tool path =
  Tracefile.Profile_file.save (Sigil.Profile_io.snapshot_of_tool tool) path
    ~run:{ workload; scale = "simsmall" }

(* [save] then [load] of [tool]'s profile. *)
let reload tool =
  Helpers.with_temp (fun path ->
      save tool path;
      fst (Tracefile.Profile_file.load path))

let test_roundtrip_stats () =
  let tool = run_guest toy in
  let snap = reload tool in
  let live = Sigil.Profile_io.snapshot_of_tool tool in
  Alcotest.(check int) "same context count"
    (List.length (Sigil.Profile_io.contexts live))
    (List.length (Sigil.Profile_io.contexts snap));
  List.iter2
    (fun (a : Sigil.Profile_io.ctx_stats) (b : Sigil.Profile_io.ctx_stats) ->
      Alcotest.(check bool) "stats equal" true (a = b))
    (Sigil.Profile_io.contexts live)
    (Sigil.Profile_io.contexts snap);
  Alcotest.(check bool) "edges equal" true
    (Sigil.Profile_io.edges live = Sigil.Profile_io.edges snap);
  Alcotest.(check (pair int int)) "totals equal" (Sigil.Profile_io.totals live)
    (Sigil.Profile_io.totals snap)

let test_totals_match_live_profile () =
  let tool = run_guest toy in
  Alcotest.(check (pair int int)) "totals match Profile.totals"
    (Sigil.Profile.totals (Sigil.Tool.profile tool))
    (Sigil.Profile_io.totals (reload tool))

let test_paths_preserved () =
  let snap = reload (run_guest toy) in
  let paths =
    List.map
      (fun (s : Sigil.Profile_io.ctx_stats) -> Sigil.Profile_io.path snap s.ctx)
      (Sigil.Profile_io.contexts snap)
  in
  List.iter
    (fun expected -> Alcotest.(check bool) ("has " ^ expected) true (List.mem expected paths))
    [ "<root>"; "main"; "main/operator new"; "main/producer"; "main/consumer" ]

let test_children () =
  let snap = reload (run_guest toy) in
  let main =
    List.find
      (fun (s : Sigil.Profile_io.ctx_stats) -> Sigil.Profile_io.path snap s.ctx = "main")
      (Sigil.Profile_io.contexts snap)
  in
  Alcotest.(check int) "main has three children" 3
    (List.length (Sigil.Profile_io.children snap main.ctx))

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Every report and analysis of a snapshot, rendered in full. *)
let reports snap =
  let all = max_int in
  let ranked = Analysis.Partition.rank (Analysis.Partition.trim (Analysis.Cdfg.of_snapshot snap)) in
  [
    ("Report.pp", render (fun ppf -> Sigil.Report.pp ~limit:all ppf snap));
    ("Report.pp_edges", render (fun ppf -> Sigil.Report.pp_edges ~limit:all ppf snap));
    ("Flat.pp", render (fun ppf -> Analysis.Flat.pp ~limit:all ppf snap));
    ("Flat.calltree", render (fun ppf -> Analysis.Flat.calltree ~max_depth:all ppf snap));
    ("Dot.cdfg", render (Analysis.Dot.cdfg snap));
    ( "Partition.rank",
      String.concat "\n"
        (List.map
           (fun (c : Analysis.Partition.candidate) ->
             Printf.sprintf "%s %h %h" c.path c.breakeven c.coverage)
           ranked) );
  ]

(* For every workload, the loaded profile names its run, dumps byte for
   byte as the live run's rendering, and every report reads the same from
   either. *)
let test_workload_roundtrip () =
  List.iter
    (fun name ->
      let w = Result.get_ok (Workloads.Suite.find name) in
      let tool = run_guest (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall) in
      let live = Sigil.Profile_io.snapshot_of_tool tool in
      Helpers.with_temp (fun path ->
          save ~workload:name tool path;
          let loaded, run = Tracefile.Profile_file.load path in
          Alcotest.(check (option (pair string string)))
            (name ^ ": run")
            (Some (name, "simsmall"))
            (Option.map (fun (r : Tracefile.Profile_file.run) -> (r.workload, r.scale)) run);
          Alcotest.(check (pair int int))
            (name ^ ": totals survive")
            (Sigil.Profile.totals (Sigil.Tool.profile tool))
            (Sigil.Profile_io.totals loaded);
          List.iter2
            (fun (what, a) (_, b) -> Alcotest.(check string) (name ^ ": " ^ what) a b)
            (reports live) (reports loaded);
          Helpers.with_temp (fun txt ->
              let records = Tracefile.Convert.binary_to_text path txt in
              Alcotest.(check int)
                (name ^ ": the run, the columns, one row per context, one record per edge")
                (2
                + List.length (Sigil.Profile_io.contexts live)
                + List.length (Sigil.Profile_io.edges live))
                records;
              Alcotest.(check string)
                (name ^ ": dump = to_string")
                (Sigil.Profile_io.to_string tool)
                (In_channel.with_open_bin txt In_channel.input_all))))
    (Workloads.Suite.names ())

let check_corrupt_at what expected f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Tracefile.Frame.Corrupt { offset; reason } ->
    Alcotest.(check int) (what ^ ": offset (" ^ reason ^ ")") expected offset

let test_bad_header_rejected () =
  Helpers.with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "sigil-profile 1\nS 0 main\n");
      check_corrupt_at "text profile" 0 (fun () -> Tracefile.Profile_file.load path))

(* A profile whose chunk holds the given raw records (each a list of
   varints) over a one-function, two-context table. *)
let write_raw_profile path records =
  let w = Tracefile.Writer.create ~kind:Tracefile.Frame.Profile path in
  List.iter
    (Tracefile.Writer.add_record w (fun buf ints -> List.iter (Tracefile.Varint.write buf) ints))
    records;
  Tracefile.Writer.close_names
    { Dbi.Names.symbols = [| "main" |]; stripped = false; parent = [| -1; 0 |]; fn = [| -1; 0 |] }
    w;
  let r = Tracefile.Reader.open_file path in
  let first = List.hd (Tracefile.Reader.chunk_offsets r) + Tracefile.Frame.chunk_header_bytes in
  Tracefile.Reader.close r;
  first

(* The records [save] writes for a two-context table, each a list of
   varints: the columns of Table I alone, one row per context. *)
let columns names =
  3 :: String.length names :: List.map Char.code (List.of_seq (String.to_seq names))

let run_record = [ 7; 1; Char.code 'w'; 1; Char.code 's' ]
let table1_names = "calls in_u in_n loc_u loc_n written iops fops"
let table1 = columns table1_names
let row = [ 4; 8; 1; 0; 0; 0; 0; 0; 3; 0 ]
let table = [ table1; row; row ]

(* The loader takes only what [save] writes: each case is a valid prefix
   and the record that breaks it, which fails at its own offset. *)
let test_malformed_record_rejected () =
  let size records =
    let b = Buffer.create 64 in
    List.iter (List.iter (Tracefile.Varint.write b)) records;
    Buffer.length b
  in
  let bins = [ 5; 1; 0; 0 ] in
  List.iter
    (fun (what, prefix, bad) ->
      Helpers.with_temp (fun path ->
          let first = write_raw_profile path (prefix @ [ bad ]) in
          check_corrupt_at what (first + size prefix) (fun () ->
              Tracefile.Profile_file.load path)))
    [
      ("row past the contexts", table, row);
      ("row without its columns", [], row);
      ("row of another length", [ table1 ], [ 4; 7; 1; 0; 0; 0; 0; 0; 3 ]);
      ("second columns record", table, table1);
      ("second run record", [ run_record ], run_record);
      ("run record after the columns", [ table1 ], run_record);
      ( "misspelled cost columns",
        [],
        columns (table1_names ^ " Ir Dr Dw I1mr D1mr D1mw ILmr DLmr DLmw Bc BCM") );
      ("edge to an unknown context", table, [ 2; 1; 9; 8; 8 ]);
      ("negative context", table, [ 2; -1; 1; 8; 8 ]);
      ("edge recorded twice", table @ [ [ 2; 0; 1; 8; 8 ] ], [ 2; 0; 1; 4; 4 ]);
      ("reuse record before the bins", table, [ 6; 1; 1; 0; 0; 0; 0 ]);
      ("second reuse bins record", table @ [ bins ], bins);
      ("reuse record with no episode", table @ [ bins ], [ 6; 1; 0; 0; 0; 0; 0 ]);
      ( "histogram bins not ascending",
        table @ [ bins ],
        [ 6; 1; 2; 2; 0; 5000; 2; 1000; 1; 1000; 1 ] );
      ("unknown tag", table, [ 9 ]);
      (* the per-context record of profiles saved before the table *)
      ("record 1 of an older profile", [], [ 1; 0; 1; 0; 0; 0; 0; 0; 3; 0 ]);
    ];
  (* a profile saved before the run record loads without one *)
  Helpers.with_temp (fun path ->
      ignore (write_raw_profile path table);
      Alcotest.(check bool) "no run record" true (snd (Tracefile.Profile_file.load path) = None));
  Helpers.with_temp (fun path ->
      let first = write_raw_profile path [ table1; row ] in
      (* a missing row is reported where the records end *)
      check_corrupt_at "context without a row" (first + size [ table1; row ]) (fun () ->
          Tracefile.Profile_file.load path))

(* A profile of three contexts whose tree is [ctx_parent]. *)
let three_contexts ~ctx_parent path =
  let w = Tracefile.Writer.create ~kind:Tracefile.Frame.Profile path in
  List.iter
    (Tracefile.Writer.add_record w (fun buf ints -> List.iter (Tracefile.Varint.write buf) ints))
    [ table1; row; row; row ];
  Tracefile.Writer.close_names
    { Dbi.Names.symbols = [| "main" |]; stripped = false; parent = ctx_parent; fn = [| -1; 0; 0 |] }
    w

(* The probes of a damaged or hostile profile given to sigil_diff: each
   exits 2 with one located stderr line (a missing parent used to exit
   125, a cycle to hang). *)
let test_diff_rejects_damage () =
  Helpers.with_temp (fun good ->
      save (run_guest toy) good;
      let data = In_channel.with_open_bin good In_channel.input_all in
      List.iter
        (fun (what, write) ->
          Helpers.with_temp (fun bad ->
              write bad;
              let code, lines =
                Cli.stderr "sigil_diff" (Filename.quote good ^ " " ^ Filename.quote bad)
              in
              Alcotest.(check int) (what ^ ": exit code") 2 code;
              match lines with
              | [ line ] when String.starts_with ~prefix:"error: corrupt trace at offset " line -> ()
              | _ -> Alcotest.failf "%s: stderr %S" what (String.concat "\n" lines)))
        [
          ( "cut in half",
            fun p ->
              Out_channel.with_open_bin p (fun oc ->
                  output_string oc (String.sub data 0 (String.length data / 2))) );
          ("parent that does not exist", three_contexts ~ctx_parent:[| -1; 0; 5 |]);
          ("parent cycle", three_contexts ~ctx_parent:[| -1; 2; 1 |]);
        ])

(* Two profiles that differ only by their edges are not identical. *)
let test_diff_sees_edges () =
  let live = Sigil.Profile_io.snapshot_of_tool (run_guest toy) in
  let no_edges =
    Sigil.Profile_io.make ~names:(Sigil.Profile_io.names live)
      ~contexts:(Sigil.Profile_io.contexts live) ~edges:[] ~costs:None ~reuse:None
  in
  Helpers.with_temp (fun a ->
      Helpers.with_temp (fun b ->
          let run = { Tracefile.Profile_file.workload = "toy"; scale = "simsmall" } in
          Tracefile.Profile_file.save live a ~run;
          Tracefile.Profile_file.save no_edges b ~run;
          let out = Filename.temp_file "sigil_diff" ".out" in
          let code =
            Sys.command
              (Printf.sprintf "%s %s %s > %s" (Cli.exe "sigil_diff") (Filename.quote a)
                 (Filename.quote b) (Filename.quote out))
          in
          let lines = In_channel.with_open_bin out In_channel.input_all |> String.split_on_char '\n' in
          Sys.remove out;
          Alcotest.(check int) "exit code" 0 code;
          Alcotest.(check bool) "not identical" false (List.mem "profiles are identical" lines);
          Alcotest.(check bool) "removed edge printed" true
            (List.exists
               (fun l ->
                 String.starts_with ~prefix:" -" l
                 && String.ends_with ~suffix:"main/producer -> main/consumer" l)
               lines)))

let suite =
  ( "profile_io",
    [
      ( "profile_io",
        [
          Alcotest.test_case "roundtrip stats" `Quick test_roundtrip_stats;
          Alcotest.test_case "totals match live" `Quick test_totals_match_live_profile;
          Alcotest.test_case "paths preserved" `Quick test_paths_preserved;
          Alcotest.test_case "children" `Quick test_children;
          Alcotest.test_case "workload roundtrip" `Quick test_workload_roundtrip;
          Alcotest.test_case "bad header rejected" `Quick test_bad_header_rejected;
          Alcotest.test_case "malformed record rejected" `Quick test_malformed_record_rejected;
          Alcotest.test_case "sigil_diff rejects damage" `Quick test_diff_rejects_damage;
          Alcotest.test_case "sigil_diff sees edges" `Quick test_diff_sees_edges;
        ] );
    ] )
