(* Recording and replay: the replayed machine must be indistinguishable
   from the original for every tool, and a malformed recording fails as a
   [Frame.Corrupt] at the offending record's offset. *)

module Recording = Tracefile.Recording

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

let replay ?(tools = []) path = Helpers.with_reader path (Recording.replay ~tools)

(* A tool constructor that also hands the Sigil tool back. *)
let sigil ?(options = Sigil.Options.default) cell m =
  let t = Sigil.Tool.create ~options ~event_sink:ignore m in
  cell := Some t;
  Sigil.Tool.tool t

let test_counters_reproduced () =
  Helpers.with_temp (fun path ->
      let original = Recording.record path small_guest in
      let replayed = replay path in
      let a = Dbi.Machine.counters original and b = Dbi.Machine.counters replayed in
      Alcotest.(check int) "int ops" a.int_ops b.int_ops;
      Alcotest.(check int) "fp ops" a.fp_ops b.fp_ops;
      Alcotest.(check int) "reads" a.reads b.reads;
      Alcotest.(check int) "writes" a.writes b.writes;
      Alcotest.(check int) "read bytes" a.read_bytes b.read_bytes;
      Alcotest.(check int) "branches" a.branches b.branches;
      Alcotest.(check int) "calls" a.calls b.calls;
      Alcotest.(check int) "clock" (Dbi.Machine.now original) (Dbi.Machine.now replayed))

let test_sigil_profile_reproduced () =
  Helpers.with_temp (fun path ->
      (* sigil attached live, next to the recorder, vs sigil driven from the
         recording *)
      let live = ref None and replayed = ref None in
      let w = Tracefile.Writer.create ~kind:Tracefile.Frame.Recording path in
      let m = (Dbi.Runner.run ~tools:[ Recording.recorder w; sigil live ] small_guest).machine in
      Tracefile.Writer.close_names
        (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m)) w;
      ignore (replay ~tools:[ sigil replayed ] path);
      let text t = Sigil.Profile_io.to_string (Option.get t) in
      Alcotest.(check string) "profiles identical" (text !live) (text !replayed))

let test_workload_trace_roundtrip () =
  Helpers.with_temp (fun path ->
      let w = Helpers.find_workload "swaptions" in
      let original =
        Recording.record path (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall)
      in
      let replayed = replay path in
      Alcotest.(check int) "clock identical" (Dbi.Machine.now original)
        (Dbi.Machine.now replayed);
      Alcotest.(check int) "context tree identical"
        (Dbi.Context.count (Dbi.Machine.contexts original))
        (Dbi.Context.count (Dbi.Machine.contexts replayed)))

(* For every workload, in byte, reuse, 64 B line and events modes, Sigil
   driven from the recording renders the live run's profile exactly. *)
let test_replay_identity_suite () =
  let modes =
    Sigil.Options.
      [
        ("byte", default);
        ("reuse", with_reuse default);
        ("line 64", with_line_size default 64);
        ("events", with_events default);
      ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let run m = w.run m Workloads.Scale.Simsmall in
      Helpers.with_temp (fun path ->
          ignore (Recording.record path run);
          List.iter
            (fun (mode, options) ->
              let live = ref None and replayed = ref None in
              ignore (Dbi.Runner.run ~tools:[ sigil ~options live ] run);
              ignore (replay ~tools:[ sigil ~options replayed ] path);
              let text t = Sigil.Profile_io.to_string (Option.get t) in
              Alcotest.(check string) (w.name ^ " " ^ mode) (text !live) (text !replayed))
            modes))
    Workloads.Suite.all

(* A recording of [records] over the symbol table [names]; returns each
   record's file offset and the offset where the records end. *)
let write_recording ?(names = [| "main" |]) path records =
  let w = Tracefile.Writer.create ~kind:Tracefile.Frame.Recording path in
  List.iter (Recording.add w) records;
  Tracefile.Writer.close_names { Dbi.Names.empty with symbols = names } w;
  Helpers.with_reader path (fun r ->
      let offsets = ref [] in
      Recording.iter r (fun offset _ -> offsets := offset :: !offsets);
      (List.rev !offsets, Tracefile.Reader.data_end r))

let test_spaced_names_roundtrip () =
  Helpers.with_temp (fun path ->
      ignore
        (write_recording ~names:[| "main"; "operator new" |] path
           [ Enter 0; Enter 1; Op (Int_op, 5); Leave; Leave ]);
      let found = ref false in
      Dbi.Symbol.iter
        (Dbi.Machine.symbols (replay path))
        (fun _ n -> if n = "operator new" then found := true);
      Alcotest.(check bool) "name with space preserved" true !found)

(* Recordings the machine would reject, each with the index of the record
   blamed (the end of the records when [None]) and the expected reason. *)
let malformed : (Recording.record list * int option * string) list =
  [
    ([ Enter 0; Access (Read, 1, 0) ], Some 1, "size must be positive: R 1 0");
    ([ Leave ], Some 0, "leave with no live call: L");
    ([ Enter 0 ], None, "end of recording with 1 call(s) still live");
    ([ Enter 0; Op (Int_op, 3); Op (Int_op, -4) ], Some 2, "negative count: I -4");
    ([ Enter 0; Op (Fp_op, -1); Leave ], Some 1, "negative count: F -1");
    ([ Enter 0; Access (Read, -5, 8); Leave ], Some 1, "address out of range: R -5 8");
    ( [ Enter 0; Access (Write, 1073741820, 8); Leave ],
      Some 1,
      "address out of range: W 1073741820 8" );
    ([ Enter 3 ], Some 0, "unknown symbol id 3");
  ]

let expected_offset (offsets, end_) = function Some i -> List.nth offsets i | None -> end_

(* Every malformed record fails as a [Frame.Corrupt] naming its offset,
   never as the machine's [Invalid_argument]. *)
let test_malformed_rejected () =
  List.iter
    (fun (records, blamed, reason) ->
      Helpers.with_temp (fun path ->
          let where = write_recording path records in
          match replay path with
          | exception Tracefile.Frame.Corrupt c ->
            Alcotest.(check (pair int string))
              "located failure"
              (expected_offset where blamed, reason)
              (c.offset, c.reason)
          | _ -> Alcotest.failf "accepted %s" reason))
    malformed;
  (* an undecodable record: an unknown tag *)
  Helpers.with_temp (fun path ->
      let w = Tracefile.Writer.create ~kind:Tracefile.Frame.Recording path in
      Recording.add w (Enter 0);
      Tracefile.Writer.add_record w Tracefile.Varint.write 9;
      Tracefile.Writer.close_names { Dbi.Names.empty with symbols = [| "main" |] } w;
      match replay path with
      | exception Tracefile.Frame.Corrupt { reason = "undecodable record"; _ } -> ()
      | exception e -> Alcotest.failf "unknown tag raised %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "unknown tag accepted")

(* A recording whose workload raises publishes nothing: neither the file
   nor its .tmp is left. *)
let test_record_crash_safe () =
  Helpers.with_temp (fun path ->
      Sys.remove path;
      (match
         Recording.record path (fun m ->
             small_guest m;
             failwith "workload died")
       with
      | _ -> Alcotest.fail "failing workload recorded"
      | exception Failure _ -> ());
      Alcotest.(check bool) "no file" false (Sys.file_exists path);
      Alcotest.(check bool) "no .tmp" false (Sys.file_exists (path ^ ".tmp")))

(* sigil_trace replay on a malformed recording exits 2 with one located
   stderr line, not an uncaught exception and its backtrace. *)
let test_replay_malformed_cli () =
  List.iter
    (fun (records, blamed, reason) ->
      Helpers.with_temp (fun path ->
          let where = write_recording path records in
          let code, lines = Cli.stderr "sigil_trace" ("replay " ^ Filename.quote path) in
          Alcotest.(check int) "exit code" 2 code;
          Alcotest.(check (list string))
            "one stderr line"
            [
              Printf.sprintf "error: corrupt trace at offset %d: %s"
                (expected_offset where blamed)
                reason;
            ]
            lines))
    malformed

let suite =
  ( "trace",
    [
      ( "trace",
        [
          Alcotest.test_case "counters reproduced" `Quick test_counters_reproduced;
          Alcotest.test_case "sigil profile reproduced" `Quick test_sigil_profile_reproduced;
          Alcotest.test_case "workload trace roundtrip" `Quick test_workload_trace_roundtrip;
          Alcotest.test_case "spaced names roundtrip" `Quick test_spaced_names_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
          Alcotest.test_case "record crash-safe" `Quick test_record_crash_safe;
          Alcotest.test_case "replay malformed on the CLI" `Quick test_replay_malformed_cli;
          Alcotest.test_case "replay identity over the suite" `Slow test_replay_identity_suite;
        ] );
    ] )
