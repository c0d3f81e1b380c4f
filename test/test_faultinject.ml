(* Fault-injection suite for the crash-safe trace path (ISSUE 4). The
   salvage contract under test: whatever fault is injected — truncation at
   any byte offset, any single-bit flip, a torn tail, a sink that dies
   mid-run — reading the damaged artifact yields either a recovered strict
   prefix of the original entries or a structured [Frame.Corrupt] carrying
   an offset. Never an uncaught exception, never silently wrong data. *)

open Sigil

let with_temp_dir f =
  let dir = Filename.temp_file "sigil_faultinject" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let gen_entries n =
  List.init n (fun i ->
      match i mod 4 with
      | 0 -> Event_log.Call { ctx = i; call = (i / 2) + 1 }
      | 1 -> Event_log.Comp { ctx = i; call = i / 2; int_ops = (i * 3) + 1; fp_ops = i mod 5 }
      | 2 ->
        Event_log.Xfer
          {
            src_ctx = i / 3;
            src_call = i / 4;
            dst_ctx = i;
            dst_call = i / 2;
            bytes = 8 + i;
            unique_bytes = 4 + (i / 2);
          }
      | _ -> Event_log.Ret { ctx = i; call = i / 2 })

let names =
  {
    Dbi.Names.symbols = [| "main"; "f"; "g" |];
    stripped = false;
    parent = [| -1; 0; 1 |];
    fn = [| -1; 1; 2 |];
  }

(* Small chunks and a tight checkpoint cadence so a ~700-byte stream spans
   a dozen data chunks with several interleaved checkpoint sections — every
   structural element of the format sits inside the sweep range. *)
let write_trace ?(entries = 220) path =
  let w = Tracefile.Writer.create ~chunk_bytes:48 ~checkpoint_every:3 path in
  let es = gen_entries entries in
  List.iter (Tracefile.Writer.add w) es;
  Tracefile.Writer.close_names names w;
  es

let take n l = List.filteri (fun i _ -> i < n) l

(* The core invariant check. Returns what happened so sweeps can also
   assert coverage (e.g. "at least one offset salvaged a proper prefix"). *)
let check_salvage_invariant ~what ~baseline path =
  match Tracefile.Reader.open_salvage path with
  | r, report ->
    let got = ref [] in
    let entries =
      match Tracefile.Reader.iter r (fun e -> got := Event_log.copy e :: !got) with
      | () ->
        Tracefile.Reader.close r;
        List.rev !got
      | exception e ->
        Tracefile.Reader.close r;
        Alcotest.failf "%s: salvaged reader failed to stream: %s" what (Printexc.to_string e)
    in
    let n = List.length entries in
    if report.Tracefile.Reader.recovered_entries <> n then
      Alcotest.failf "%s: report claims %d entries, reader yielded %d" what
        report.Tracefile.Reader.recovered_entries n;
    if n > List.length baseline then
      Alcotest.failf "%s: salvage invented entries (%d > %d)" what n (List.length baseline);
    if entries <> take n baseline then
      Alcotest.failf "%s: salvage is not a prefix of the original entries" what;
    `Salvaged (report, entries)
  | exception Tracefile.Frame.Corrupt { offset; _ } ->
    if offset < 0 then Alcotest.failf "%s: structured error with negative offset" what;
    `Error offset
  | exception e ->
    Alcotest.failf "%s: uncaught exception escaped salvage: %s" what (Printexc.to_string e)

(* The strict half of the contract: [open_file] + [iter] on a damaged file
   yields the whole original trace or a [Frame.Corrupt] with an offset,
   never a shorter list and never another exception. *)
let check_open_file_invariant ~what ~baseline path =
  match Helpers.read_entries path with
  | entries when entries = baseline -> `Full
  | entries ->
    Alcotest.failf "%s: open_file returned %d of %d entries without an error" what
      (List.length entries) (List.length baseline)
  | exception Tracefile.Frame.Corrupt { offset; _ } ->
    if offset < 0 then Alcotest.failf "%s: open_file error with negative offset" what;
    `Error offset
  | exception e -> Alcotest.failf "%s: open_file raised %s" what (Printexc.to_string e)

(* ---------------------------------------------------------------- *)
(* Exhaustive truncation sweep                                      *)
(* ---------------------------------------------------------------- *)

let test_truncation_sweep () =
  with_temp_dir @@ fun dir ->
  let src = Filename.concat dir "clean.tf" in
  let baseline = write_trace src in
  (match Helpers.read_entries src with
  | got when got = baseline -> ()
  | _ -> Alcotest.fail "clean trace does not round-trip");
  let len = Faultinject.file_length src in
  let dst = Filename.concat dir "cut.tf" in
  let salvages = ref 0 and partial = ref 0 and errors = ref 0 in
  for cut = 0 to len do
    Faultinject.truncated_copy ~src ~dst ~len:cut;
    let what = Printf.sprintf "truncate at %d" cut in
    (* open_file is salvage that allows no damage: it names the offset
       salvage stopped at, or, when salvage walked the whole cut file
       clean, the cut itself, where the trailer should have been *)
    let salvage_stop =
      match check_salvage_invariant ~what ~baseline dst with
      | `Salvaged (report, entries) ->
        incr salvages;
        if entries <> [] && List.length entries < List.length baseline then incr partial;
        Option.value report.Tracefile.Reader.first_bad_offset ~default:cut
      | `Error offset ->
        incr errors;
        offset
    in
    match check_open_file_invariant ~what ~baseline dst with
    | `Full -> if cut < len then Alcotest.failf "%s: open_file accepted a cut file" what
    | `Error offset -> Alcotest.(check int) (what ^ ": open_file offset") salvage_stop offset
  done;
  Alcotest.(check int) "every offset handled" (len + 1) (!salvages + !errors);
  (* the sweep must actually exercise both halves of the contract *)
  Alcotest.(check bool) "some cuts salvage a proper non-empty prefix" true (!partial > 0);
  Alcotest.(check bool) "some cuts are structured errors (header region)" true (!errors > 0);
  (* an untruncated copy recovers everything *)
  Faultinject.truncated_copy ~src ~dst ~len;
  match check_salvage_invariant ~what:"no truncation" ~baseline dst with
  | `Salvaged (report, entries) ->
    Alcotest.(check int) "full recovery" (List.length baseline) (List.length entries);
    Alcotest.(check int) "nothing dropped" 0 report.Tracefile.Reader.dropped_chunks;
    Alcotest.(check bool) "tail intact" true report.Tracefile.Reader.tail_valid
  | `Error o -> Alcotest.failf "clean file reported corrupt at %d" o

(* ---------------------------------------------------------------- *)
(* Exhaustive single-bit-flip sweep                                 *)
(* ---------------------------------------------------------------- *)

let test_bit_flip_sweep () =
  with_temp_dir @@ fun dir ->
  let src = Filename.concat dir "clean.tf" in
  let baseline = write_trace src in
  let len = Faultinject.file_length src in
  let dst = Filename.concat dir "flip.tf" in
  let detected = ref 0 in
  for byte = 0 to len - 1 do
    (* one bit per byte keeps the sweep linear; rotating the bit position
       still visits every bit index in every 8-byte window *)
    let bit = byte mod 8 in
    Faultinject.bit_flipped_copy ~src ~dst ~byte ~bit;
    let what = Printf.sprintf "flip byte %d bit %d" byte bit in
    ignore (check_open_file_invariant ~what ~baseline dst);
    match check_salvage_invariant ~what ~baseline dst with
    | `Salvaged (report, entries) ->
      if List.length entries < List.length baseline || report.Tracefile.Reader.first_bad_offset <> None
      then incr detected
    | `Error _ -> incr detected
  done;
  (* most flips must be detected; the only undetectable ones live in the
     unchecksummed header tag or trailer counters, a small fixed region *)
  Alcotest.(check bool)
    (Printf.sprintf "flips detected (%d of %d)" !detected len)
    true
    (!detected > len / 2)

(* ---------------------------------------------------------------- *)
(* Torn tail                                                        *)
(* ---------------------------------------------------------------- *)

let test_torn_tail () =
  with_temp_dir @@ fun dir ->
  let src = Filename.concat dir "clean.tf" in
  let baseline = write_trace src in
  let len = Faultinject.file_length src in
  let dst = Filename.concat dir "torn.tf" in
  List.iter
    (fun (keep, junk) ->
      let keep = min keep len in
      Faultinject.torn_tail_copy ~src ~dst ~keep ~junk;
      match
        check_salvage_invariant
          ~what:(Printf.sprintf "torn tail keep=%d junk=%d" keep junk)
          ~baseline dst
      with
      | `Salvaged _ | `Error _ -> ())
    [ (len / 2, 64); (len / 3, 512); (len - 40, 40); (30, 256); (len, 100) ]

(* ---------------------------------------------------------------- *)
(* Unclosed .tmp (simulated crash) and failing sinks                *)
(* ---------------------------------------------------------------- *)

let test_salvage_unclosed_tmp () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "crashed.tf" in
  let w = Tracefile.Writer.create ~chunk_bytes:48 ~checkpoint_every:3 path in
  let es = gen_entries 100 in
  List.iter (Tracefile.Writer.add w) es;
  (* no close: the process "died". The destination must not exist; the
     .tmp must salvage to a prefix of what was fed in. *)
  Alcotest.(check bool) "destination not published" false (Sys.file_exists path);
  Alcotest.(check bool) "tmp exists" true (Sys.file_exists (path ^ ".tmp"));
  (match check_salvage_invariant ~what:"unclosed tmp" ~baseline:es (path ^ ".tmp") with
  | `Salvaged (report, entries) ->
    Alcotest.(check bool) "tail lost" false report.Tracefile.Reader.tail_valid;
    (* checkpoints flush every 3 chunks of ~16 entries: most of the feed
       must have reached disk *)
    Alcotest.(check bool) "checkpoint flushing bounded the loss" true
      (List.length entries > 0)
  | `Error o -> Alcotest.failf "unclosed tmp unsalvageable (offset %d)" o);
  Tracefile.Writer.discard w;
  Alcotest.(check bool) "discard removes tmp" false (Sys.file_exists (path ^ ".tmp"))

let feed_until_failure sink entries =
  let accepted = ref 0 in
  (try
     List.iter
       (fun e ->
         sink e;
         incr accepted)
       entries
   with Faultinject.Injected _ -> ());
  !accepted

let test_failing_sink () =
  with_temp_dir @@ fun dir ->
  let es = gen_entries 200 in
  let run what trigger check =
    let path = Filename.concat dir (what ^ ".tf") in
    let w = Tracefile.Writer.create ~chunk_bytes:48 path in
    let accepted = feed_until_failure (Faultinject.failing_sink trigger w) es in
    check w accepted;
    (* the driver's failure path: abandon the artifact *)
    Tracefile.Writer.discard w;
    Alcotest.(check bool) (what ^ ": no file published") false (Sys.file_exists path);
    Alcotest.(check bool) (what ^ ": no tmp left") false (Sys.file_exists (path ^ ".tmp"))
  in
  run "after_entries" (Faultinject.After_entries 37) (fun _ accepted ->
      Alcotest.(check int) "fails at exactly N entries" 37 accepted);
  run "after_bytes" (Faultinject.After_bytes 120) (fun w accepted ->
      Alcotest.(check bool) "accepted some entries" true (accepted > 0);
      Alcotest.(check bool) "stopped once the byte budget was hit" true
        (Tracefile.Writer.bytes_written w >= 120 && accepted < List.length es));
  run "on_flush" (Faultinject.On_flush 2) (fun w accepted ->
      Alcotest.(check int) "died right after the 2nd chunk flush" 2 (Tracefile.Writer.chunks w);
      Alcotest.(check bool) "accepted a flush worth of entries" true (accepted > 0));
  (* a tripped sink stays tripped *)
  let path = Filename.concat dir "dead.tf" in
  let w = Tracefile.Writer.create path in
  let sink = Faultinject.failing_sink (Faultinject.After_entries 1) w in
  let _ = feed_until_failure sink es in
  (match sink (List.hd es) with
  | () -> Alcotest.fail "sink resurrected after failure"
  | exception Faultinject.Injected _ -> ());
  Tracefile.Writer.discard w

(* ---------------------------------------------------------------- *)
(* Repair                                                           *)
(* ---------------------------------------------------------------- *)

let test_repair_roundtrip () =
  with_temp_dir @@ fun dir ->
  let src = Filename.concat dir "clean.tf" in
  let baseline = write_trace src in
  let len = Faultinject.file_length src in
  (* damage a mid-file chunk: flip a bit well past the header *)
  let damaged = Filename.concat dir "damaged.tf" in
  Faultinject.bit_flipped_copy ~src ~dst:damaged ~byte:(len / 2) ~bit:3;
  let repaired = Filename.concat dir "repaired.tf" in
  let report = Tracefile.Convert.repair damaged repaired in
  Alcotest.(check bool) "repair dropped something" true
    (report.Tracefile.Reader.dropped_chunks > 0 || report.Tracefile.Reader.first_bad_offset <> None);
  (* the rewritten trace is strictly clean: full open + validate *)
  let r = Tracefile.Reader.open_file repaired in
  Fun.protect
    ~finally:(fun () -> Tracefile.Reader.close r)
    (fun () ->
      Tracefile.Convert.validate r;
      Alcotest.(check int) "entry count matches the salvage report"
        report.Tracefile.Reader.recovered_entries
        (Tracefile.Reader.entry_count r);
      let got = ref [] in
      Tracefile.Reader.iter r (fun e -> got := Event_log.copy e :: !got);
      let got = List.rev !got in
      Alcotest.(check bool) "repaired entries are a prefix of the original" true
        (got = take (List.length got) baseline);
      (* the source had an intact tail, so tables and options survive *)
      Alcotest.(check bool) "tables preserved" true (Tracefile.Reader.names r = names);
      Alcotest.(check string) "options tag preserved"
        (Sigil.Options.fingerprint Sigil.Options.default)
        (Tracefile.Reader.options_tag r))

let test_repair_of_truncated_tmp () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "crashed.tf" in
  let w = Tracefile.Writer.create ~chunk_bytes:48 ~checkpoint_every:3 path in
  let es = gen_entries 150 in
  List.iter (Tracefile.Writer.add w) es;
  (* crash; then cut the tmp mid-byte like a torn final sector *)
  let tmp = path ^ ".tmp" in
  let torn = Filename.concat dir "torn.tf" in
  Faultinject.truncated_copy ~src:tmp ~dst:torn ~len:(Faultinject.file_length tmp - 7);
  let repaired = Filename.concat dir "repaired.tf" in
  let report = Tracefile.Convert.repair torn repaired in
  let r = Tracefile.Reader.open_file repaired in
  Fun.protect
    ~finally:(fun () -> Tracefile.Reader.close r)
    (fun () ->
      Tracefile.Convert.validate r;
      Alcotest.(check int) "repair preserves every salvaged entry"
        report.Tracefile.Reader.recovered_entries
        (Tracefile.Reader.entry_count r));
  Tracefile.Writer.discard w

(* Atomicity of the writer's publish step. *)
let test_close_is_atomic_rename () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "out.tf" in
  (* pre-existing good trace *)
  let _ = write_trace ~entries:20 path in
  let old = Helpers.read_entries path in
  (* a new writer that dies must leave the old trace untouched *)
  let w = Tracefile.Writer.create ~chunk_bytes:48 path in
  List.iter (Tracefile.Writer.add w) (gen_entries 60);
  Tracefile.Writer.discard w;
  Alcotest.(check bool) "old trace still present" true (Sys.file_exists path);
  Alcotest.(check bool) "old trace unchanged" true (Helpers.read_entries path = old);
  (* and a successful close replaces it completely *)
  let fresh = write_trace ~entries:40 path in
  Alcotest.(check bool) "new trace replaced the old one" true (Helpers.read_entries path = fresh)

(* ---------------------------------------------------------------- *)
(* The other kinds: a saved profile and a raw recording             *)
(* ---------------------------------------------------------------- *)

let small_guest m =
  Dbi.Guest.call m "main" (fun () ->
      let a = Dbi.Guest.alloc m 128 in
      Dbi.Guest.call m "producer" (fun () ->
          Dbi.Guest.flop m 20;
          Dbi.Guest.write_range m a 64);
      Dbi.Guest.call m "consumer" (fun () ->
          Dbi.Guest.read_range m a 64;
          Dbi.Guest.branch m true);
      Dbi.Guest.syscall m "write" ~reads:[ (a, 16) ] ~writes:[])

(* A profile of [small_guest]: one chunk. *)
let write_profile path =
  let tool = ref None in
  ignore
    (Dbi.Runner.run
       ~tools:
         [
           (fun m ->
             let t = Tool.create m in
             tool := Some t;
             Tool.tool t);
         ]
       small_guest);
  Tracefile.Profile_file.save (Profile_io.snapshot_of_tool (Option.get !tool)) path

(* A recording of [small_guest] in 16-byte chunks with a checkpoint every
   3 chunks. *)
let write_recording path =
  let w =
    Tracefile.Writer.create ~kind:Tracefile.Frame.Recording ~chunk_bytes:16 ~checkpoint_every:3
      ~options_tag:"" path
  in
  let m = (Dbi.Runner.run ~tools:[ Tracefile.Recording.recorder w ] small_guest).machine in
  Tracefile.Writer.close_names
    (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m)) w

let recording_records r =
  let out = ref [] in
  Tracefile.Recording.iter r (fun _ rc -> out := rc :: !out);
  List.rev !out

let replay path = Helpers.with_reader path (fun r -> ignore (Tracefile.Recording.replay ~tools:[] r))

(* [f ()] must raise [Frame.Corrupt] at an offset inside the file. *)
let expect_located ~what ~len f =
  match f () with
  | () -> Alcotest.failf "%s: accepted" what
  | exception Tracefile.Frame.Corrupt { offset; _ } ->
    if offset < 0 || offset > len then Alcotest.failf "%s: offset %d outside the file" what offset
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

(* Every CRC'd section of a clean file, data chunk or checkpoint, as the
   byte span [first, last]: the framing walked from the first chunk to
   the tables. *)
let section_spans path =
  let data = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let tables = Tracefile.Frame.get_u64 data (Bytes.length data - 32) in
  let first = Helpers.with_reader path (fun r -> List.hd (Tracefile.Reader.chunk_offsets r)) in
  let rec go off acc =
    if off >= tables then List.rev acc
    else
      let next = off + Tracefile.Frame.chunk_header_bytes + Tracefile.Frame.get_u32 data (off + 8) in
      go next ((off, next - 1) :: acc)
  in
  go first []

(* Every cut of a profile fails as a located [Corrupt]: a profile is only
   ever read whole. *)
let test_profile_truncation_sweep () =
  with_temp_dir @@ fun dir ->
  let src = Filename.concat dir "clean.prof" and dst = Filename.concat dir "cut.prof" in
  write_profile src;
  ignore (Tracefile.Profile_file.load src);
  let len = Faultinject.file_length src in
  for cut = 0 to len - 1 do
    Faultinject.truncated_copy ~src ~dst ~len:cut;
    expect_located ~what:(Printf.sprintf "profile cut at %d" cut) ~len:cut (fun () ->
        ignore (Tracefile.Profile_file.load dst))
  done

(* Every cut of a recording fails to replay with a located [Corrupt];
   salvage gives a prefix of its records (all of them when only the tail
   was cut), whose replay fails at an offset too (the tail, symbol table
   included, is gone), or a located [Corrupt]. *)
let test_recording_truncation_sweep () =
  with_temp_dir @@ fun dir ->
  let src = Filename.concat dir "clean.rec" and dst = Filename.concat dir "cut.rec" in
  write_recording src;
  replay src;
  let baseline = Helpers.with_reader src recording_records in
  let len = Faultinject.file_length src in
  let partial = ref 0 in
  for cut = 0 to len - 1 do
    Faultinject.truncated_copy ~src ~dst ~len:cut;
    let what = Printf.sprintf "recording cut at %d" cut in
    expect_located ~what ~len:cut (fun () -> replay dst);
    let salvage () =
      let r, _ = Tracefile.Reader.open_salvage dst in
      Fun.protect
        ~finally:(fun () -> Tracefile.Reader.close r)
        (fun () ->
          let records = recording_records r in
          let n = List.length records in
          if records <> take n baseline then Alcotest.failf "%s: salvage is not a prefix" what;
          if n > 0 then begin
            incr partial;
            expect_located ~what:(what ^ ": salvaged replay") ~len:cut (fun () ->
                ignore (Tracefile.Recording.replay ~tools:[] r))
          end)
    in
    match salvage () with
    | () -> ()
    | exception Tracefile.Frame.Corrupt { offset; _ } when offset >= 0 && offset <= cut -> ()
    | exception e -> Alcotest.failf "%s: salvage raised %s" what (Printexc.to_string e)
  done;
  Alcotest.(check bool) "some cuts salvage a non-empty prefix" true (!partial > 0)

(* No single-bit flip raises anything but [Corrupt]; a flip inside a CRC'd
   section is always detected, by the loader or by salvage. Only the
   header's options tag, the tables and the trailer counters are
   unchecksummed. *)
let flip_sweep ~src ~dst ~load =
  let spans = section_spans src in
  let len = Faultinject.file_length src in
  for byte = 0 to len - 1 do
    let bit = byte mod 8 in
    Faultinject.bit_flipped_copy ~src ~dst ~byte ~bit;
    let what = Printf.sprintf "flip byte %d bit %d" byte bit in
    let located =
      match load dst with
      | () -> false
      | exception Tracefile.Frame.Corrupt { offset; _ } ->
        if offset < 0 || offset > len then Alcotest.failf "%s: offset %d" what offset;
        true
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
    in
    let salvage_detects () =
      match Tracefile.Reader.open_salvage dst with
      | r, report ->
        Tracefile.Reader.close r;
        report.Tracefile.Reader.first_bad_offset <> None
      | exception Tracefile.Frame.Corrupt _ -> true
    in
    if List.exists (fun (a, b) -> a <= byte && byte <= b) spans && not (located || salvage_detects ())
    then Alcotest.failf "%s: a flip inside a section went unnoticed" what
  done;
  List.length spans

let test_profile_flip_sweep () =
  with_temp_dir @@ fun dir ->
  let src = Filename.concat dir "clean.prof" in
  write_profile src;
  let sections =
    flip_sweep ~src ~dst:(Filename.concat dir "flip.prof") ~load:(fun p ->
        ignore (Tracefile.Profile_file.load p))
  in
  Alcotest.(check int) "one chunk" 1 sections

let test_recording_flip_sweep () =
  with_temp_dir @@ fun dir ->
  let src = Filename.concat dir "clean.rec" in
  write_recording src;
  let sections = flip_sweep ~src ~dst:(Filename.concat dir "flip.rec") ~load:replay in
  (* data chunks and checkpoints *)
  Alcotest.(check bool) "several sections" true (sections >= 4)

let suite =
  ( "faultinject",
    [
      ( "salvage",
        [
          Alcotest.test_case "exhaustive truncation sweep" `Quick test_truncation_sweep;
          Alcotest.test_case "exhaustive bit-flip sweep" `Quick test_bit_flip_sweep;
          Alcotest.test_case "torn tail" `Quick test_torn_tail;
          Alcotest.test_case "unclosed .tmp salvages" `Quick test_salvage_unclosed_tmp;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "profile truncation sweep" `Quick test_profile_truncation_sweep;
          Alcotest.test_case "recording truncation sweep" `Quick test_recording_truncation_sweep;
          Alcotest.test_case "profile bit-flip sweep" `Quick test_profile_flip_sweep;
          Alcotest.test_case "recording bit-flip sweep" `Quick test_recording_flip_sweep;
        ] );
      ( "sinks",
        [ Alcotest.test_case "failing sink triggers" `Quick test_failing_sink ] );
      ( "repair",
        [
          Alcotest.test_case "repair roundtrip" `Quick test_repair_roundtrip;
          Alcotest.test_case "repair a torn crash tmp" `Quick test_repair_of_truncated_tmp;
          Alcotest.test_case "close is atomic rename" `Quick test_close_is_atomic_rename;
        ] );
    ] )
