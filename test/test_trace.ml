(* Trace record/replay: the replayed machine must be indistinguishable from
   the original for every tool. *)

let small_guest m =
  Dbi.Guest.call m "main" (fun () ->
      let a = Dbi.Guest.alloc m 128 in
      Dbi.Guest.call m "operator new" (fun () ->
          Dbi.Guest.iop m 10;
          Dbi.Guest.write m a 8);
      Dbi.Guest.call m "producer" (fun () ->
          Dbi.Guest.flop m 20;
          Dbi.Guest.write_range m a 64);
      Dbi.Guest.call m "consumer" (fun () ->
          Dbi.Guest.read_range m a 64;
          Dbi.Guest.branch m true);
      Dbi.Guest.syscall m "write" ~reads:[ (a, 16) ] ~writes:[])

let with_temp f =
  let path = Filename.temp_file "dbi_trace" ".txt" in
  let finally () = if Sys.file_exists path then Sys.remove path in
  Fun.protect ~finally (fun () -> f path)

let test_counters_reproduced () =
  with_temp (fun path ->
      let original = Dbi.Trace.record path small_guest in
      let replayed = Dbi.Trace.replay ~tools:[] path in
      let a = Dbi.Machine.counters original and b = Dbi.Machine.counters replayed in
      Alcotest.(check int) "int ops" a.Dbi.Machine.int_ops b.Dbi.Machine.int_ops;
      Alcotest.(check int) "fp ops" a.Dbi.Machine.fp_ops b.Dbi.Machine.fp_ops;
      Alcotest.(check int) "reads" a.Dbi.Machine.reads b.Dbi.Machine.reads;
      Alcotest.(check int) "writes" a.Dbi.Machine.writes b.Dbi.Machine.writes;
      Alcotest.(check int) "read bytes" a.Dbi.Machine.read_bytes b.Dbi.Machine.read_bytes;
      Alcotest.(check int) "branches" a.Dbi.Machine.branches b.Dbi.Machine.branches;
      Alcotest.(check int) "calls" a.Dbi.Machine.calls b.Dbi.Machine.calls;
      Alcotest.(check int) "clock" (Dbi.Machine.now original) (Dbi.Machine.now replayed))

let test_sigil_profile_reproduced () =
  with_temp (fun path ->
      (* sigil attached live vs sigil driven from the trace *)
      let live = ref None in
      let _ =
        Dbi.Runner.run
          ~tools:
            [
              Dbi.Trace.recorder (open_out path);
              (fun m ->
                let t = Sigil.Tool.create m in
                live := Some t;
                Sigil.Tool.tool t);
            ]
          small_guest
      in
      let replayed = ref None in
      let _ =
        Dbi.Trace.replay
          ~tools:
            [
              (fun m ->
                let t = Sigil.Tool.create m in
                replayed := Some t;
                Sigil.Tool.tool t);
            ]
          path
      in
      let totals t = Sigil.Profile.totals (Sigil.Tool.profile (Option.get t)) in
      Alcotest.(check (pair int int)) "profile totals identical" (totals !live) (totals !replayed);
      let edge_count t =
        List.length (Sigil.Profile.edges (Sigil.Tool.profile (Option.get t)))
      in
      Alcotest.(check int) "edge count identical" (edge_count !live) (edge_count !replayed))

let test_workload_trace_roundtrip () =
  with_temp (fun path ->
      let w =
        match Workloads.Suite.find "swaptions" with Ok w -> w | Error e -> Alcotest.fail e
      in
      let original =
        Dbi.Trace.record path (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall)
      in
      let replayed = Dbi.Trace.replay ~tools:[] path in
      Alcotest.(check int) "clock identical" (Dbi.Machine.now original)
        (Dbi.Machine.now replayed);
      Alcotest.(check int) "context tree identical"
        (Dbi.Context.count (Dbi.Machine.contexts original))
        (Dbi.Context.count (Dbi.Machine.contexts replayed)))

let test_spaced_names_roundtrip () =
  let machine =
    Dbi.Trace.replay_events ~tools:[] [ "E main"; "E operator new"; "I 5"; "L"; "L" ]
  in
  let found = ref false in
  Dbi.Symbol.iter (Dbi.Machine.symbols machine) (fun _ n ->
      if n = "operator new" then found := true);
  Alcotest.(check bool) "name with space preserved" true !found

let test_malformed_rejected () =
  List.iter
    (fun line ->
      match Dbi.Trace.replay_events ~tools:[] [ "E main"; line ] with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted malformed %S" line)
    [ "Z 1"; "R 1"; "I x"; "B 2 3"; "E" ];
  (* records the machine itself would reject fail as a Failure naming
     their line, never as the machine's Invalid_argument *)
  List.iter
    (fun (lines, expected) ->
      match Dbi.Trace.replay_events ~tools:[] lines with
      | exception Failure msg -> Alcotest.(check string) "located failure" expected msg
      | _ -> Alcotest.failf "accepted %S" (String.concat "; " lines))
    [
      ([ "E main"; "R 1 0" ], "Trace: line 2: size must be positive: R 1 0");
      ([ "L" ], "Trace: line 1: leave with no live call: L");
      ([ "E main" ], "Trace: line 1: end of trace with 1 call(s) still live");
      ([ "E main"; "I 3"; "I -4" ], "Trace: line 3: negative count: I -4");
      ([ "E main"; "R -5 8"; "L" ], "Trace: line 2: address out of range: R -5 8");
      ([ "E main"; "W 1073741820 8"; "L" ], "Trace: line 2: address out of range: W 1073741820 8");
    ]

let test_blank_lines_ignored () =
  let machine = Dbi.Trace.replay_events ~tools:[] [ ""; "E main"; "  "; "I 3"; "L"; "" ] in
  Alcotest.(check int) "ops counted" 3 (Dbi.Machine.counters machine).Dbi.Machine.int_ops

(* A recording whose workload raises publishes nothing: Dbi.Trace.record
   writes through Atomic_file, so neither the file nor its .tmp is left. *)
let test_record_crash_safe () =
  with_temp (fun path ->
      Sys.remove path;
      (match
         Dbi.Trace.record path (fun m ->
             small_guest m;
             failwith "workload died")
       with
      | _ -> Alcotest.fail "failing workload recorded"
      | exception Failure _ -> ());
      Alcotest.(check bool) "no file" false (Sys.file_exists path);
      Alcotest.(check bool) "no .tmp" false (Sys.file_exists (path ^ ".tmp")))

(* sigil_trace replay on a malformed recording exits 2 with one stderr
   line, not an uncaught exception and its backtrace. *)
let test_replay_malformed_cli () =
  List.iter
    (fun (contents, expected) ->
      with_temp (fun path ->
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
          let code, lines = Cli.stderr "sigil_trace" ("replay " ^ Filename.quote path) in
          Alcotest.(check int) "exit code" 2 code;
          Alcotest.(check (list string)) "one stderr line" [ expected ] lines))
    [
      ("E main\nZ 1\nL\n", "error: Trace: line 2: malformed record: Z 1");
      ("E main\nR 1 0\nL\n", "error: Trace: line 2: size must be positive: R 1 0");
      ("E main\nI 1\n", "error: Trace: line 2: end of trace with 1 call(s) still live");
      ("E main\nR -5 8\nL\n", "error: Trace: line 2: address out of range: R -5 8");
      ("E main\nW 1073741820 8\nL\n", "error: Trace: line 2: address out of range: W 1073741820 8");
    ]

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "counters reproduced" `Quick test_counters_reproduced;
          Alcotest.test_case "sigil profile reproduced" `Quick test_sigil_profile_reproduced;
          Alcotest.test_case "workload trace roundtrip" `Quick test_workload_trace_roundtrip;
          Alcotest.test_case "spaced names roundtrip" `Quick test_spaced_names_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
          Alcotest.test_case "blank lines ignored" `Quick test_blank_lines_ignored;
          Alcotest.test_case "record crash-safe" `Quick test_record_crash_safe;
          Alcotest.test_case "replay malformed on the CLI" `Quick test_replay_malformed_cli;
        ] );
    ]
