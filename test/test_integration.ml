(* Cross-module integration: full Sigil + Callgrind runs over real
   workloads, checking the invariants the paper's experiments rely on. *)

let run ?event_sink name ~options =
  let w = Helpers.find_workload name in
  let sigil = ref None and cg = ref None in
  let r =
    Dbi.Runner.run
      ~tools:
        [
          (fun m ->
            let t = Sigil.Tool.create ~options ?event_sink m in
            sigil := Some t;
            Sigil.Tool.tool t);
          (fun m ->
            let t = Callgrind.Tool.create m in
            cg := Some t;
            Callgrind.Tool.tool t);
        ]
      (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall)
  in
  (Option.get !sigil, Option.get !cg, r.Dbi.Runner.machine)

let full_options = Sigil.Options.(with_events (with_reuse default))

(* A full run whose entries go straight into the critical-path pass, as
   in sigil_critpath; also returns the run's machine. *)
let critpath name =
  let machine = ref None in
  let cp =
    Analysis.Critpath.analyze_stream (fun emit ->
        let _, _, m = run name ~options:full_options ~event_sink:emit in
        machine := Some m)
  in
  (cp, Option.get !machine)

let test_sigil_and_machine_agree () =
  let sigil, _, m = run "blackscholes" ~options:Sigil.Options.default in
  let c = Dbi.Machine.counters m in
  let p = Sigil.Tool.profile sigil in
  let ops =
    List.fold_left
      (fun acc ctx ->
        let s = Sigil.Profile.stats p ctx in
        acc + s.Sigil.Profile.int_ops + s.Sigil.Profile.fp_ops)
      0 (Sigil.Profile.contexts p)
  in
  Alcotest.(check int) "ops conserved" (c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops) ops;
  let written =
    List.fold_left
      (fun acc ctx -> acc + (Sigil.Profile.stats p ctx).Sigil.Profile.written)
      0 (Sigil.Profile.contexts p)
  in
  Alcotest.(check int) "written bytes conserved" c.Dbi.Machine.written_bytes written;
  let _, total = Sigil.Profile.totals p in
  Alcotest.(check int) "read bytes conserved" c.Dbi.Machine.read_bytes total

let test_callgrind_and_machine_agree () =
  let _, cg, m = run "swaptions" ~options:Sigil.Options.default in
  let c = Dbi.Machine.counters m in
  let total = Callgrind.Tool.total cg in
  Alcotest.(check int) "Ir = ops + accesses + branches"
    (c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops + c.Dbi.Machine.reads + c.Dbi.Machine.writes
   + c.Dbi.Machine.branches)
    total.Callgrind.Cost.ir;
  Alcotest.(check int) "dr" c.Dbi.Machine.reads total.Callgrind.Cost.dr;
  Alcotest.(check int) "dw" c.Dbi.Machine.writes total.Callgrind.Cost.dw

let test_partitioning_invariants () =
  List.iter
    (fun name ->
      let sigil, cg, _ = run name ~options:Sigil.Options.default in
      let cdfg = Analysis.Cdfg.build ~callgrind:cg sigil in
      let trimmed = Analysis.Partition.trim cdfg in
      Alcotest.(check bool)
        (name ^ " coverage in (0,1]")
        true
        (trimmed.Analysis.Partition.coverage > 0.0 && trimmed.Analysis.Partition.coverage <= 1.0001);
      List.iter
        (fun (c : Analysis.Partition.candidate) ->
          Alcotest.(check bool) (name ^ " breakeven >= 1") true (c.Analysis.Partition.breakeven >= 1.0);
          Alcotest.(check bool) (name ^ " not main") true (c.Analysis.Partition.name <> "main"))
        trimmed.Analysis.Partition.selected)
    [ "canneal"; "fluidanimate" ]

let test_low_coverage_trio_is_lower () =
  let coverage name =
    let sigil, cg, _ = run name ~options:Sigil.Options.default in
    let cdfg = Analysis.Cdfg.build ~callgrind:cg sigil in
    (Analysis.Partition.trim cdfg).Analysis.Partition.coverage
  in
  let canneal = coverage "canneal" and swaptions = coverage "swaptions" in
  let blackscholes = coverage "blackscholes" and fluidanimate = coverage "fluidanimate" in
  Alcotest.(check bool) "canneal < blackscholes" true (canneal < blackscholes);
  Alcotest.(check bool) "swaptions < fluidanimate" true (swaptions < fluidanimate);
  Alcotest.(check bool) "majority above 50%" true
    (blackscholes > 0.5 && fluidanimate > 0.5)

let test_critical_path_shapes () =
  let parallelism name = Analysis.Critpath.parallelism (fst (critpath name)) in
  let sc = parallelism "streamcluster" in
  let fa = parallelism "fluidanimate" in
  Alcotest.(check bool) "streamcluster high" true (sc > 10.0);
  Alcotest.(check bool) "fluidanimate serial" true (fa < 1.5);
  Alcotest.(check bool) "both >= 1" true (sc >= 1.0 && fa >= 1.0)

let test_streamcluster_rand_chain () =
  let cp, m = critpath "streamcluster" in
  let contexts = Dbi.Machine.contexts m in
  let symbols = Dbi.Machine.symbols m in
  let names =
    List.filter_map
      (fun ctx ->
        if ctx = Dbi.Context.root then None
        else Some (Dbi.Symbol.name symbols (Dbi.Context.fn contexts ctx)))
      (Analysis.Critpath.critical_path_contexts cp)
  in
  (* the paper's §IV-C chain, leaf to main *)
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("path contains " ^ expected) true (List.mem expected names))
    [ "drand48_iterate"; "pkmedian"; "localSearch"; "streamCluster"; "main" ]

let test_vips_reuse_contrast () =
  let sigil, _, _ = run "vips" ~options:full_options ~event_sink:ignore in
  let rows = Analysis.Reuse_report.top_reusers ~n:10 sigil in
  let find label =
    List.find_opt (fun (r : Analysis.Reuse_report.fn_row) -> r.Analysis.Reuse_report.label = label) rows
  in
  (match (find "conv_gen", find "imb_XYZ2Lab") with
  | Some conv, Some xyz ->
    Alcotest.(check bool) "conv_gen lifetime much larger" true
      (conv.Analysis.Reuse_report.avg_lifetime > 20.0 *. xyz.Analysis.Reuse_report.avg_lifetime)
  | _ -> Alcotest.fail "expected conv_gen and imb_XYZ2Lab among top reusers");
  let snap = Sigil.Profile_io.snapshot_of_tool sigil in
  let h_conv = Analysis.Reuse_report.lifetime_histogram snap "conv_gen" in
  let h_xyz = Analysis.Reuse_report.lifetime_histogram snap "imb_XYZ2Lab" in
  let max_bin h = List.fold_left (fun acc (b, _) -> max acc b) 0 h in
  Alcotest.(check bool) "conv_gen long tail" true (max_bin h_conv > 10 * max_bin h_xyz);
  Alcotest.(check bool) "xyz2lab peaks at zero" true
    (match h_xyz with (0, _) :: _ -> true | _ -> false)

let test_fig8_blackscholes_zero_reuse () =
  let sigil, _, _ = run "blackscholes" ~options:full_options ~event_sink:ignore in
  let bd = Analysis.Reuse_report.byte_breakdown sigil in
  Alcotest.(check bool) "mostly zero reuse" true (bd.Analysis.Reuse_report.zero > 0.8);
  Alcotest.(check (float 1e-6)) "fractions sum to 1" 1.0
    (bd.Analysis.Reuse_report.zero +. bd.Analysis.Reuse_report.one_to_nine
   +. bd.Analysis.Reuse_report.over_nine)

let test_dedup_memory_limiter () =
  let w = Helpers.find_workload "dedup" in
  let run_with options =
    let sigil = ref None in
    let _ =
      Dbi.Runner.run
        ~tools:
          [
            (fun m ->
              let t = Sigil.Tool.create ~options m in
              sigil := Some t;
              Sigil.Tool.tool t);
          ]
        (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall)
    in
    Option.get !sigil
  in
  let unlimited = run_with Sigil.Options.(with_reuse default) in
  let limited = run_with Sigil.Options.(with_max_chunks (with_reuse default) 24) in
  Alcotest.(check int) "no evictions unlimited" 0 (Sigil.Tool.shadow_evictions unlimited);
  Alcotest.(check bool) "limited evicts" true (Sigil.Tool.shadow_evictions limited > 0);
  Alcotest.(check bool) "limited uses less memory" true
    (Sigil.Tool.shadow_footprint_peak_bytes limited
    < Sigil.Tool.shadow_footprint_peak_bytes unlimited);
  (* accuracy loss is bounded: totals shift, but by little *)
  let _, t_unl = Sigil.Profile.totals (Sigil.Tool.profile unlimited) in
  let _, t_lim = Sigil.Profile.totals (Sigil.Tool.profile limited) in
  Alcotest.(check int) "total reads identical" t_unl t_lim

let test_line_mode_on_workload () =
  let sigil, _, _ = run "raytrace" ~options:Sigil.Options.(with_line_size default 64) in
  match Sigil.Tool.line_shadow sigil with
  | None -> Alcotest.fail "no line shadow"
  | Some line ->
    let a, b, c, d, e = Sigil.Line_shadow.bin_fractions line in
    Alcotest.(check (float 1e-6)) "fractions sum" 1.0 (a +. b +. c +. d +. e);
    (* the hot top of the BVH is re-read by every ray *)
    Alcotest.(check bool) "heavy line reuse exists" true (c +. d +. e > 0.004);
    let hot =
      List.exists
        (fun r -> Sigil.Line_shadow.reuse_count r > 1000)
        (Sigil.Line_shadow.records line)
    in
    Alcotest.(check bool) "some line re-used >1000 times" true hot

let suite =
  ( "integration",
    [
      ( "integration",
        [
          Alcotest.test_case "sigil and machine agree" `Quick test_sigil_and_machine_agree;
          Alcotest.test_case "callgrind and machine agree" `Quick
            test_callgrind_and_machine_agree;
          Alcotest.test_case "partitioning invariants" `Quick test_partitioning_invariants;
          Alcotest.test_case "low-coverage trio" `Slow test_low_coverage_trio_is_lower;
          Alcotest.test_case "critical path shapes" `Slow test_critical_path_shapes;
          Alcotest.test_case "streamcluster rand chain" `Slow test_streamcluster_rand_chain;
          Alcotest.test_case "vips reuse contrast" `Slow test_vips_reuse_contrast;
          Alcotest.test_case "fig8 blackscholes zero reuse" `Quick
            test_fig8_blackscholes_zero_reuse;
          Alcotest.test_case "dedup memory limiter" `Slow test_dedup_memory_limiter;
          Alcotest.test_case "line mode on workload" `Slow test_line_mode_on_workload;
        ] );
    ] )
