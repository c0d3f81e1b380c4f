(* Telemetry: the metrics vocabulary (histogram bucketing, snapshot merge
   algebra) and the deterministic goldens it exists for — exact
   per-workload counter values, the memory-limit eviction accounting, the
   trace writer's buffer bound, sequential-vs-pooled snapshot identity,
   and stats collection never perturbing what is measured. *)

let snapshot =
  Alcotest.testable (fun ppf s -> Telemetry.pp ppf s) Telemetry.equal

let find_workload name =
  match Workloads.Suite.find name with Ok w -> w | Error e -> Alcotest.fail e

let small = Workloads.Scale.Simsmall

let run_stats ?(options = Sigil.Options.default) name =
  let options = Sigil.Options.with_stats options in
  Driver.Stats.of_run (Driver.run_workload ~options (find_workload name) small)

let geti = Telemetry.get_int

let with_temp ext f =
  let path = Filename.temp_file "sigil_telemetry" ext in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* ---------------------------------------------------------------- *)
(* Histogram bucketing                                              *)
(* ---------------------------------------------------------------- *)

let test_hist_bucket_goldens () =
  let cases =
    [
      (min_int, 0); (-5, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
      (1023, 10); (1024, 11); (65536, 17); (max_int, 62);
    ]
  in
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (Telemetry.Hist.bucket_of v))
    cases;
  Alcotest.(check int) "bucket_lo 0" 0 (Telemetry.Hist.bucket_lo 0);
  Alcotest.(check int) "bucket_lo 1" 1 (Telemetry.Hist.bucket_lo 1);
  Alcotest.(check int) "bucket_lo 2" 2 (Telemetry.Hist.bucket_lo 2);
  Alcotest.(check int) "bucket_lo 3" 4 (Telemetry.Hist.bucket_lo 3);
  Alcotest.(check int) "bucket_lo 11" 1024 (Telemetry.Hist.bucket_lo 11)

let test_hist_observe () =
  let h = Telemetry.Hist.create () in
  List.iter (Telemetry.Hist.observe h) [ 0; 1; 1; 5; 1024 ];
  Alcotest.(check int) "total" 5 (Telemetry.Hist.total h);
  Alcotest.(check (array int))
    "counts trimmed to last non-zero bucket"
    [| 1; 2; 0; 1; 0; 0; 0; 0; 0; 0; 0; 1 |]
    (Telemetry.Hist.counts h);
  Alcotest.(check (array int)) "empty histogram trims to nothing" [||]
    (Telemetry.Hist.counts (Telemetry.Hist.create ()))

let qcheck_bucket_invariant =
  QCheck.Test.make ~name:"bucket_of lands v inside [bucket_lo b, bucket_lo (b+1))" ~count:1000
    QCheck.(oneof [ small_int; int; int_range 0 max_int ])
    (fun v ->
      let b = Telemetry.Hist.bucket_of v in
      let in_range = b >= 0 && b < 63 in
      if v <= 0 then in_range && b = 0
      else
        in_range
        && Telemetry.Hist.bucket_lo b <= v
        && (b = 62 || v < Telemetry.Hist.bucket_lo (b + 1)))

(* ---------------------------------------------------------------- *)
(* Snapshot algebra                                                 *)
(* ---------------------------------------------------------------- *)

let test_of_samples_combines () =
  let s =
    Telemetry.of_samples
      Telemetry.
        [
          count "c" 1; count "c" 2; gauge "g" 5; gauge "g" 7; peak "p" 3; peak "p" 9; peak "p" 4;
        ]
  in
  Alcotest.(check int) "counters add" 3 (geti s "c");
  Alcotest.(check int) "gauges add" 12 (geti s "g");
  Alcotest.(check int) "peaks take the max" 9 (geti s "p");
  Alcotest.(check int) "absent name reads 0" 0 (geti s "nope");
  Alcotest.(check bool) "find on absent name" true (Telemetry.find s "nope" = None)

let test_mismatch_rejected () =
  let raises what samples =
    match Telemetry.of_samples samples with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: mismatch not rejected" what
  in
  raises "kind mismatch" Telemetry.[ count "x" 1; gauge "x" 1 ];
  raises "domain mismatch" Telemetry.[ count "x" 1; count ~domain:Telemetry.Wall "x" 1 ]

let test_domain_split () =
  let s =
    Telemetry.of_samples
      Telemetry.[ count "det" 1; count ~domain:Telemetry.Wall "wall" 2; seconds "t" 0.5 ]
  in
  Alcotest.(check int) "det section keeps det" 1 (geti (Telemetry.deterministic s) "det");
  Alcotest.(check int) "det section drops wall" 0 (geti (Telemetry.deterministic s) "wall");
  Alcotest.(check int) "wall section keeps wall" 2 (geti (Telemetry.wall s) "wall");
  Alcotest.(check bool) "seconds is always wall" true
    (Telemetry.find (Telemetry.deterministic s) "t" = None)

(* random snapshots over a fixed vocabulary (one kind per name, as real
   probes have); seconds use dyadic fractions so float addition is exact
   and merge associativity can be checked with structural equality *)
let snapshot_gen =
  let open QCheck.Gen in
  let sample =
    oneof
      [
        map (fun v -> Telemetry.count "alpha" v) (int_range 0 1000);
        map (fun v -> Telemetry.count ~domain:Telemetry.Wall "walt" v) (int_range 0 1000);
        map (fun v -> Telemetry.gauge "beta" v) (int_range 0 1000);
        map (fun v -> Telemetry.peak "gamma" v) (int_range 0 1000);
        map (fun v -> Telemetry.seconds "delta" (float_of_int v /. 8.0)) (int_range 0 64);
        map
          (fun vs ->
            let h = Telemetry.Hist.create () in
            List.iter (Telemetry.Hist.observe h) vs;
            Telemetry.hist "eta" h)
          (list_size (int_range 0 8) (int_range 0 100_000));
      ]
  in
  map Telemetry.of_samples (list_size (int_range 0 10) sample)

let arbitrary_snapshot = QCheck.make ~print:Telemetry.to_json snapshot_gen

let qcheck_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:500
    QCheck.(triple arbitrary_snapshot arbitrary_snapshot arbitrary_snapshot)
    (fun (a, b, c) ->
      Telemetry.(equal (merge a (merge b c)) (merge (merge a b) c)))

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:500
    QCheck.(pair arbitrary_snapshot arbitrary_snapshot)
    (fun (a, b) -> Telemetry.(equal (merge a b) (merge b a)))

let qcheck_merge_identity =
  QCheck.Test.make ~name:"empty is the merge identity" ~count:500 arbitrary_snapshot
    (fun a -> Telemetry.(equal (merge a empty) a && equal (merge empty a) a))

(* ---------------------------------------------------------------- *)
(* Deterministic goldens                                            *)
(* ---------------------------------------------------------------- *)

(* exact values for blackscholes simsmall under default options; any change
   here is a behaviour change in the shadow engine or the guest, never
   noise *)
let test_golden_blackscholes () =
  let s = run_stats "blackscholes" in
  let expect = Alcotest.(check int) in
  expect "machine.instructions" 1_478_258 (geti s "machine.instructions");
  expect "machine.calls" 11_245 (geti s "machine.calls");
  expect "machine.syscalls" 15 (geti s "machine.syscalls");
  expect "machine.contexts" 28 (geti s "machine.contexts");
  expect "machine.symbols" 25 (geti s "machine.symbols");
  expect "shadow.chunks_allocated" 27 (geti s "shadow.chunks_allocated");
  expect "shadow.pages" 2 (geti s "shadow.pages");
  expect "shadow.evictions" 0 (geti s "shadow.evictions");
  expect "shadow.range_runs" 86_636 (geti s "shadow.range_runs");
  expect "shadow.footprint_peak_bytes" 952_544 (geti s "shadow.footprint_peak_bytes");
  (* conservation: the shadow engine sees exactly the accesses the machine
     retires, and the profile accounts every byte of them *)
  expect "range_reads = machine.reads" (geti s "machine.reads") (geti s "shadow.range_reads");
  expect "range_read_bytes = machine.read_bytes" (geti s "machine.read_bytes")
    (geti s "shadow.range_read_bytes");
  expect "profile.read_bytes = machine.read_bytes" (geti s "machine.read_bytes")
    (geti s "profile.read_bytes");
  expect "range_writes = machine.writes" (geti s "machine.writes") (geti s "shadow.range_writes");
  (* the read-size histogram observes one value per range read *)
  (match Telemetry.find s "shadow.read_size" with
  | Some (Telemetry.Histogram counts) ->
    expect "read_size histogram totals the reads" (geti s "machine.reads")
      (Array.fold_left ( + ) 0 counts)
  | _ -> Alcotest.fail "shadow.read_size missing or not a histogram");
  Alcotest.(check bool) "unique reads <= total reads" true
    (geti s "profile.unique_read_bytes" <= geti s "profile.read_bytes")

(* the memory limit's FIFO accounting: exact eviction count at a binding
   cap, and allocations - evictions = live chunks *)
let test_golden_dedup_evictions () =
  let s =
    run_stats ~options:(Sigil.Options.with_max_chunks Sigil.Options.default 64) "dedup"
  in
  let expect = Alcotest.(check int) in
  expect "shadow.chunks_allocated" 168 (geti s "shadow.chunks_allocated");
  expect "shadow.evictions" 104 (geti s "shadow.evictions");
  expect "shadow.chunks_live" 64 (geti s "shadow.chunks_live");
  expect "shadow.chunks_peak (cap binds)" 64 (geti s "shadow.chunks_peak");
  expect "allocated - evicted = live"
    (geti s "shadow.chunks_allocated" - geti s "shadow.evictions")
    (geti s "shadow.chunks_live");
  expect "profile.unique_read_bytes" 2_687_495 (geti s "profile.unique_read_bytes")

(* the trace writer buffers at most one chunk plus the entry that crossed
   the flush threshold, and every dispatched event becomes an entry *)
let test_writer_buffer_bound () =
  with_temp ".tf" (fun path ->
      let options = Sigil.Options.(with_stats (with_events default)) in
      let chunk_bytes = 4096 in
      let w = Tracefile.Writer.create ~chunk_bytes ~options path in
      let r =
        Driver.run_workload ~options ~event_sink:(Tracefile.Writer.sink w)
          (find_workload "blackscholes") small
      in
      Tracefile.Writer.close w;
      let s =
        Telemetry.merge (Driver.Stats.of_run r)
          (Telemetry.of_samples (Tracefile.Writer.telemetry w))
      in
      Alcotest.(check int) "trace.entries = events.dispatched" (geti s "events.dispatched")
        (geti s "trace.entries");
      Alcotest.(check int) "trace.entries golden" 67_588 (geti s "trace.entries");
      let peak = geti s "trace.peak_buffer_bytes" in
      Alcotest.(check bool)
        (Printf.sprintf "peak buffer %d <= chunk + one entry" peak)
        true
        (peak <= chunk_bytes + 64);
      Alcotest.(check bool) "several chunks were flushed" true (geti s "trace.chunks" > 2))

(* ---------------------------------------------------------------- *)
(* Sequential vs pooled identity; collection never perturbs the run *)
(* ---------------------------------------------------------------- *)

let stats_specs = [ "blackscholes"; "canneal"; "dedup"; "streamcluster" ]

let run_suite_stats pool =
  let options = Sigil.Options.(with_stats default) in
  Driver.run_many ?pool
    (List.map (fun n -> Driver.job ~options (find_workload n) small) stats_specs)

let test_deterministic_j_invariance () =
  let sequential = run_suite_stats None in
  let parallel = Pool.with_pool ~domains:4 (fun p -> run_suite_stats (Some p)) in
  List.iteri
    (fun i (s, p) ->
      match (s, p) with
      | Ok s, Ok p ->
        Alcotest.check snapshot
          (Printf.sprintf "deterministic snapshot %d (%s)" i (List.nth stats_specs i))
          (Telemetry.deterministic (Driver.Stats.of_run s))
          (Telemetry.deterministic (Driver.Stats.of_run p))
      | _ -> Alcotest.fail "suite run failed")
    (List.combine sequential parallel);
  (* the rendered artifact agrees byte for byte, aggregate included *)
  let json results =
    Driver.Stats.to_json ~wall:false ~scale:small (List.combine stats_specs results)
  in
  Alcotest.(check string) "sigil-stats document byte-identical across -j" (json sequential)
    (json parallel);
  let agg = Driver.Stats.aggregate sequential in
  Alcotest.(check int) "aggregate counts the runs" (List.length stats_specs)
    (geti agg "suite.runs");
  Alcotest.(check int) "no failures" 0 (geti agg "suite.failures")

(* Minor words the instrumented guest run allocates: the machine with the
   Sigil tool attached, without the snapshot assembly [Driver] adds when
   stats are on. *)
let guest_run_minor_words options name =
  let workload = find_workload name in
  let before = Gc.minor_words () in
  let _ =
    Dbi.Runner.run
      ~tools:[ (fun m -> Sigil.Tool.tool (Sigil.Tool.create ~options m)) ]
      (fun m -> workload.Workloads.Workload.run m small)
  in
  Gc.minor_words () -. before

(* [collect_stats] is read only in [Driver], to assemble snapshots: the
   shadow-heaviest workloads must run identically, down to the minor words
   the instrumented run allocates, with stats on and off *)
let test_stats_collection_is_inert () =
  List.iter
    (fun name ->
      let run options = Driver.run_workload ~options (find_workload name) small in
      let off = run Sigil.Options.default in
      let on_ = run Sigil.Options.(with_stats default) in
      let check what = Alcotest.(check bool) (name ^ ": " ^ what) true in
      check "off-run has no snapshot" (off.Driver.stats = None);
      check "on-run has a snapshot" (on_.Driver.stats <> None);
      Alcotest.(check int)
        (name ^ ": instruction clocks agree")
        (Dbi.Machine.now off.Driver.machine)
        (Dbi.Machine.now on_.Driver.machine);
      check "machine counters agree"
        (Dbi.Machine.counters off.Driver.machine = Dbi.Machine.counters on_.Driver.machine);
      Alcotest.(check string)
        (name ^ ": profiles bit-identical")
        (Sigil.Profile_io.to_string (Driver.sigil off))
        (Sigil.Profile_io.to_string (Driver.sigil on_));
      Alcotest.(check (float 0.0))
        (name ^ ": guest run allocates the same minor words")
        (guest_run_minor_words Sigil.Options.default name)
        (guest_run_minor_words Sigil.Options.(with_stats default) name))
    [ "canneal"; "dedup"; "streamcluster" ]

let () =
  Alcotest.run "telemetry"
    [
      ( "hist",
        [
          Alcotest.test_case "bucket goldens" `Quick test_hist_bucket_goldens;
          Alcotest.test_case "observe and trim" `Quick test_hist_observe;
          QCheck_alcotest.to_alcotest qcheck_bucket_invariant;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "of_samples combines" `Quick test_of_samples_combines;
          Alcotest.test_case "mismatches rejected" `Quick test_mismatch_rejected;
          Alcotest.test_case "domain split" `Quick test_domain_split;
          QCheck_alcotest.to_alcotest qcheck_merge_associative;
          QCheck_alcotest.to_alcotest qcheck_merge_commutative;
          QCheck_alcotest.to_alcotest qcheck_merge_identity;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "blackscholes exact counters" `Quick test_golden_blackscholes;
          Alcotest.test_case "dedup memory-limit evictions" `Quick test_golden_dedup_evictions;
          Alcotest.test_case "trace writer buffer bound" `Quick test_writer_buffer_bound;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "deterministic section is -j invariant" `Quick
            test_deterministic_j_invariance;
          Alcotest.test_case "collection never perturbs the run" `Quick
            test_stats_collection_is_inert;
        ] );
    ]
