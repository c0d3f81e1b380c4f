(* Property-based fuzzing: random guests from guest_gen.ml, run under every
   tool at once, must satisfy the conservation laws that tie the layers
   together, and each layer must agree with its spec: sigil_spec.ml for the
   shadow, cache_spec.ml for Callgrind, critpath_spec.ml for the critical
   path of the stream the guest emitted. *)

(* An event sink that keeps the entries in [log], newest first. *)
let into log e = log := Sigil.Event_log.copy e :: !log

let run_all ?(event_sink = ignore) prog =
  let sigil = ref None and cg = ref None in
  let r =
    Dbi.Runner.run ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t =
              Sigil.Tool.create
                ~options:Sigil.Options.(with_events (with_reuse default))
                ~event_sink m
            in
            sigil := Some t;
            Sigil.Tool.tool t);
          (fun m ->
            let t = Callgrind.Tool.create m in
            cg := Some t;
            Callgrind.Tool.tool t);
        ]
      (fun m -> Guest_gen.interp m prog)
  in
  (Option.get !sigil, Option.get !cg, r.Dbi.Runner.machine)

let arbitrary = Guest_gen.arbitrary

let prop_conservation =
  QCheck.Test.make ~name:"ops/bytes conserved across all layers" ~count:120 arbitrary
    (fun prog ->
      let sigil, cg, m = run_all prog in
      let c = Dbi.Machine.counters m in
      let profile = Sigil.Tool.profile sigil in
      let sigil_ops =
        List.fold_left
          (fun acc ctx ->
            let s = Sigil.Profile.stats profile ctx in
            acc + s.Sigil.Profile.int_ops + s.Sigil.Profile.fp_ops)
          0 (Sigil.Profile.contexts profile)
      in
      let _, read_total = Sigil.Profile.totals profile in
      let written =
        List.fold_left
          (fun acc ctx -> acc + (Sigil.Profile.stats profile ctx).Sigil.Profile.written)
          0 (Sigil.Profile.contexts profile)
      in
      let total_cost = Callgrind.Tool.total cg in
      sigil_ops = c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops
      && read_total = c.Dbi.Machine.read_bytes
      && written = c.Dbi.Machine.written_bytes
      && total_cost.Callgrind.Cost.ir
         = c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops + c.Dbi.Machine.reads
           + c.Dbi.Machine.writes + c.Dbi.Machine.branches
      && total_cost.Callgrind.Cost.bc = c.Dbi.Machine.branches)

let prop_unique_bounded =
  QCheck.Test.make ~name:"unique <= total everywhere" ~count:120 arbitrary (fun prog ->
      let sigil, _, _ = run_all prog in
      let profile = Sigil.Tool.profile sigil in
      let unique, total = Sigil.Profile.totals profile in
      unique <= total
      && List.for_all
           (fun (e : Sigil.Profile.edge) ->
             e.Sigil.Profile.unique_bytes <= e.Sigil.Profile.bytes && e.Sigil.Profile.bytes > 0)
           (Sigil.Profile.edges profile))

let prop_event_log_consistent =
  QCheck.Test.make ~name:"event log balanced and critpath bounded" ~count:120 arbitrary
    (fun prog ->
      let log = ref [] in
      let _, _, m = run_all ~event_sink:(into log) prog in
      let entries = List.rev !log in
      let calls, rets =
        List.fold_left
          (fun (c, r) -> function
            | Sigil.Event_log.Call _ -> (c + 1, r)
            | Sigil.Event_log.Ret _ -> (c, r + 1)
            | Sigil.Event_log.Comp _ | Sigil.Event_log.Xfer _ -> (c, r))
          (0, 0) entries
      in
      (match Critpath_check.agree_on entries with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "critical path: %s" e);
      let cp = Analysis.Critpath.analyze_stream (Helpers.stream_of entries) in
      let c = Dbi.Machine.counters m in
      calls = rets
      && calls = c.Dbi.Machine.calls
      && Analysis.Critpath.serial_length cp = c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops
      && Analysis.Critpath.critical_path_length cp <= Analysis.Critpath.serial_length cp
      && Analysis.Critpath.parallelism cp >= 1.0 -. 1e-9)

let prop_cdfg_consistent =
  QCheck.Test.make ~name:"cdfg inclusive costs and breakevens sane" ~count:80 arbitrary
    (fun prog ->
      let sigil, cg, m = run_all prog in
      let cdfg = Analysis.Cdfg.build ~callgrind:cg sigil in
      let c = Dbi.Machine.counters m in
      let root = Analysis.Cdfg.root cdfg in
      root.Analysis.Cdfg.incl_ops = c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops
      && List.for_all
           (fun ctx ->
             let n = Analysis.Cdfg.node cdfg ctx in
             n.Analysis.Cdfg.incl_input_unique <= n.Analysis.Cdfg.incl_input_total
             && n.Analysis.Cdfg.incl_output_unique <= n.Analysis.Cdfg.incl_output_total
             && n.Analysis.Cdfg.self_ops <= n.Analysis.Cdfg.incl_ops
             &&
             let s = Analysis.Partition.breakeven cdfg ctx in
             s >= 1.0 || s = infinity)
           (Analysis.Cdfg.contexts cdfg))

let prop_reuse_consistent =
  QCheck.Test.make ~name:"reuse version bins count every touched element" ~count:80 arbitrary
    (fun prog ->
      let sigil, _, _ = run_all prog in
      let bins = Sigil.Reuse.version_bins (Sigil.Tool.reuse sigil) in
      let elements = bins.Sigil.Reuse.zero + bins.Sigil.Reuse.low + bins.Sigil.Reuse.high in
      (* every distinct byte a program touches ends as at least one version,
         and versions cannot outnumber total byte-accesses *)
      let c = Dbi.Machine.counters (Sigil.Tool.machine sigil) in
      let touched_bytes = c.Dbi.Machine.read_bytes + c.Dbi.Machine.written_bytes in
      elements <= max 1 touched_bytes)

let profiles_equal a b =
  let ctxs p = Sigil.Profile.contexts p in
  let stats_of p ctx =
    let s = Sigil.Profile.stats p ctx in
    Sigil.Profile.
      ( s.input_unique, s.input_nonunique, s.local_unique, s.local_nonunique, s.written,
        s.int_ops, s.fp_ops, s.calls )
  in
  let edges p =
    List.sort compare
      (List.map
         (fun (e : Sigil.Profile.edge) ->
           (e.Sigil.Profile.src, e.Sigil.Profile.dst, e.Sigil.Profile.bytes,
            e.Sigil.Profile.unique_bytes))
         (Sigil.Profile.edges p))
  in
  ctxs a = ctxs b
  && List.for_all (fun ctx -> stats_of a ctx = stats_of b ctx) (ctxs a)
  && edges a = edges b

(* Differential check of the range-batched shadow engine against the
   per-byte reference: the Table I spec of sigil_spec.ml, which shares no
   code with the engine. Every generated program runs in byte, reuse and
   events modes; the tool and the spec must agree on every context's
   stats and every edge, the eviction count, and, where the mode has
   them, the reuse statistics and the event stream. *)
let modes =
  Sigil.Options.
    [
      ("byte", default);
      ("reuse", with_reuse default);
      ("events", with_events default);
      ("events+reuse", with_events (with_reuse default));
    ]

let matches_spec ?max_chunks prog =
  List.for_all
    (fun (mode, options) ->
      let options =
        match max_chunks with
        | Some n -> Sigil.Options.with_max_chunks options n
        | None -> options
      in
      match Sigil_spec.check ~call_overhead:0 ~options (fun m -> Guest_gen.interp m prog) with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_reportf "%s mode: %s" mode e)
    modes

let prop_range_matches_per_byte =
  QCheck.Test.make ~name:"range engine bit-identical to per-byte reference" ~count:120
    arbitrary matches_spec

(* The arena spans three chunks: one or two live chunks evict on most
   programs, often in the middle of a range. *)
let prop_range_matches_per_byte_limited =
  QCheck.Test.make ~name:"range engine matches per-byte under FIFO eviction" ~count:80
    QCheck.(pair arbitrary (1 -- 2))
    (fun (prog, max_chunks) -> matches_spec ~max_chunks prog)

(* Single-tool runner for the line-shadow and telemetry properties. *)
let run_one ?log options prog =
  let sigil = ref None in
  let _ =
    Dbi.Runner.run ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t = Sigil.Tool.create ~options ?event_sink:(Option.map into log) m in
            sigil := Some t;
            Sigil.Tool.tool t);
        ]
      (fun m -> Guest_gen.interp m prog)
  in
  Option.get !sigil

(* Line mode against the spec of sigil_spec.ml: every line's access
   count and first and last clock, and the [line.*] telemetry. *)
let line_shadow_matches_spec line_size prog =
  let options = Sigil.Options.with_line_size Sigil.Options.default line_size in
  match Sigil_spec.check ~call_overhead:0 ~options (fun m -> Guest_gen.interp m prog) with
  | Ok _ -> true
  | Error e -> QCheck.Test.fail_reportf "%dB lines: %s" line_size e

(* At 1-byte lines the line shadow is a byte shadow; at 64-byte lines
   random spans straddle lines. *)
let prop_line_shadow_per_byte =
  QCheck.Test.make ~name:"line shadow at 1B lines matches per-byte reference" ~count:100
    arbitrary (fun prog -> line_shadow_matches_spec 1 prog && line_shadow_matches_spec 64 prog)

(* Aligned accesses: every access covers exactly one 8-byte line. *)
let prop_line_shadow_aligned =
  QCheck.Test.make ~name:"line shadow on aligned accesses matches reference" ~count:100
    (QCheck.make ~print:Guest_gen.print Guest_gen.gen_aligned)
    (fun prog -> line_shadow_matches_spec 8 prog)

(* The FIFO memory limit's accounting, read back through telemetry: chunks
   are conserved (allocated - evicted = live) and the cap really binds. *)
let prop_memory_limit_accounting =
  QCheck.Test.make ~name:"FIFO memory limit conserves chunk accounting" ~count:80
    QCheck.(pair arbitrary (1 -- 3))
    (fun (prog, cap) ->
      let t = run_one (Sigil.Options.with_max_chunks Sigil.Options.default cap) prog in
      let s = Telemetry.of_samples (Sigil.Tool.telemetry t) in
      let g = Telemetry.get_int s in
      let c = Dbi.Machine.counters (Sigil.Tool.machine t) in
      g "shadow.chunks_live" = g "shadow.chunks_allocated" - g "shadow.evictions"
      && g "shadow.chunks_live" <= cap
      && g "shadow.chunks_peak" <= cap
      && g "shadow.evictions" = Sigil.Tool.shadow_evictions t
      && g "shadow.range_reads" = c.Dbi.Machine.reads
      && g "shadow.range_read_bytes" = c.Dbi.Machine.read_bytes)

(* Options.collect_stats gates only end-of-run snapshot assembly; the run
   itself — profile, reuse bins, event log, machine counters — must be
   bit-identical with it on and off. *)
let prop_stats_flag_inert =
  QCheck.Test.make ~name:"stats collection never perturbs the run" ~count:60 arbitrary
    (fun prog ->
      let base = Sigil.Options.(with_events (with_reuse default)) in
      let log_off = ref [] and log_on = ref [] in
      let off = run_one ~log:log_off base prog in
      let on_ = run_one ~log:log_on (Sigil.Options.with_stats base) prog in
      profiles_equal (Sigil.Tool.profile off) (Sigil.Tool.profile on_)
      && Sigil.Reuse.version_bins (Sigil.Tool.reuse off)
         = Sigil.Reuse.version_bins (Sigil.Tool.reuse on_)
      && !log_off = !log_on
      && Dbi.Machine.counters (Sigil.Tool.machine off)
         = Dbi.Machine.counters (Sigil.Tool.machine on_)
      && Telemetry.equal
           (Telemetry.of_samples (Sigil.Tool.telemetry off))
           (Telemetry.of_samples (Sigil.Tool.telemetry on_)))

let prop_trace_replay_identical =
  QCheck.Test.make ~name:"trace replay reproduces the profile" ~count:40 arbitrary (fun prog ->
      let path = Filename.temp_file "fuzz_trace" ".rec" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let original =
            Tracefile.Recording.record path (fun m ->
                (* record runs with default overhead; fine, it is recorded *)
                Guest_gen.interp m prog)
          in
          let replayed_tool = ref None in
          let r = Tracefile.Reader.open_file path in
          let _ =
            Fun.protect
              ~finally:(fun () -> Tracefile.Reader.close r)
              (fun () ->
                Tracefile.Recording.replay
                  ~tools:
                    [
                      (fun m ->
                        let t = Sigil.Tool.create m in
                        replayed_tool := Some t;
                        Sigil.Tool.tool t);
                    ]
                  r)
          in
          let replayed = Sigil.Tool.machine (Option.get !replayed_tool) in
          Dbi.Machine.now original = Dbi.Machine.now replayed
          && Dbi.Context.count (Dbi.Machine.contexts original)
             = Dbi.Context.count (Dbi.Machine.contexts replayed)))

(* Callgrind against the cache spec of cache_spec.ml, line-batched fetches
   and all, at a generated geometry: every context's cost must agree. *)
let cache_config (c : Guest_gen.caches) =
  let cache (g : Guest_gen.cache) =
    { Cachesim.Cache.size = g.size; assoc = g.assoc; line = g.line }
  in
  { Cachesim.Hierarchy.l1i = cache c.l1i; l1d = cache c.l1d; ll = cache c.ll }

let prop_matches_cache_spec =
  QCheck.Test.make ~name:"line-batched fetches match per-fetch oracle" ~count:300
    QCheck.(pair arbitrary (make ~print:Guest_gen.print_caches Guest_gen.gen_caches))
    (fun (guest, caches) ->
      match
        Cache_spec.check ~cache_config:(cache_config caches) (fun m -> Guest_gen.interp m guest)
      with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_reportf "%s" e)

(* Fixed cases the generator may miss: one long root-context run, and a
   function whose cursor wraps its code page mid-run, at the default
   geometry. *)
let test_fixed_cases () =
  let open Guest_gen in
  List.iter
    (fun (label, guest) ->
      match Cache_spec.check ~cache_config:Cachesim.Hierarchy.default (fun m -> interp m guest) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" label e)
    [
      ("root run", [ Op 5000; Read (arena, 8); Op 3 ]);
      ( "page wrap",
        [ Call ("f", [ Op 1000; Write (arena, 4); Op 2000; Call ("g", [ Op 1030 ]); Op 7 ]) ] );
      ("line-sized runs", [ Call ("f", [ Op 16; Op 15; Op 17; Op 1; Fp 64 ]) ]);
    ]

let suite =
  ( "fuzz",
    [
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_conservation;
            prop_unique_bounded;
            prop_event_log_consistent;
            prop_cdfg_consistent;
            prop_reuse_consistent;
            prop_range_matches_per_byte;
            prop_range_matches_per_byte_limited;
            prop_line_shadow_per_byte;
            prop_line_shadow_aligned;
            prop_memory_limit_accounting;
            prop_stats_flag_inert;
            prop_trace_replay_identical;
          ] );
    ] )

let callgrind_suite =
  ( "callgrind_batch",
    [
      ( "callgrind_batch",
        Alcotest.test_case "fixed cases" `Quick test_fixed_cases
        :: List.map QCheck_alcotest.to_alcotest [ prop_matches_cache_spec ] );
    ] )
