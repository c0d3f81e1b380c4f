(* Each synthetic workload exists to reproduce a qualitative property the
   paper reports for its namesake. These tests pin those signatures so
   future tuning cannot silently lose them. *)

(* The workload runs inside the critical-path pass's stream. *)
let parallelism name =
  let w = Helpers.find_workload name in
  Analysis.Critpath.parallelism
    (Analysis.Critpath.analyze_stream (fun emit ->
         ignore
           (Dbi.Runner.run
              ~tools:
                [
                  (fun m ->
                    Sigil.Tool.tool
                      (Sigil.Tool.create ~options:Sigil.Options.(with_events default)
                         ~event_sink:emit m));
                ]
              (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall))))

(* One run per workload and Sigil mode, Sigil beside Callgrind, shared by
   every case below: the partition signatures read byte mode, as
   sigil_partition runs it, and the reuse signatures reuse mode. *)
let runs = Hashtbl.create 16

let run ~reuse name =
  match Hashtbl.find_opt runs (name, reuse) with
  | Some r -> r
  | None ->
    let w = Helpers.find_workload name in
    let options = if reuse then Sigil.Options.(with_reuse default) else Sigil.Options.default in
    let sigil = ref None and cg = ref None in
    let _ =
      Dbi.Runner.run
        ~tools:
          [
            (fun m ->
              let t = Sigil.Tool.create ~options m in
              sigil := Some t;
              Sigil.Tool.tool t);
            (fun m ->
              let t = Callgrind.Tool.create m in
              cg := Some t;
              Callgrind.Tool.tool t);
          ]
        (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall)
    in
    let r = (Option.get !sigil, Option.get !cg) in
    Hashtbl.add runs (name, reuse) r;
    r

let reuse_run name = fst (run ~reuse:true name)

let coverage name =
  let sigil, cg = run ~reuse:false name in
  (Analysis.Partition.trim (Analysis.Cdfg.build ~callgrind:cg sigil)).Analysis.Partition.coverage

let fn_share_of_ops tool name =
  let profile = Sigil.Tool.profile tool in
  let machine = Sigil.Tool.machine tool in
  let contexts = Dbi.Machine.contexts machine in
  let symbols = Dbi.Machine.symbols machine in
  let total = ref 0 and own = ref 0 in
  List.iter
    (fun ctx ->
      let s = Sigil.Profile.stats profile ctx in
      let ops = s.Sigil.Profile.int_ops + s.Sigil.Profile.fp_ops in
      total := !total + ops;
      if
        ctx <> Dbi.Context.root
        && Dbi.Symbol.name symbols (Dbi.Context.fn contexts ctx) = name
      then own := !own + ops)
    (Sigil.Profile.contexts profile);
  float_of_int !own /. float_of_int (max 1 !total)

(* blackscholes: streaming, near-total zero re-use (Fig 8's leftmost bar) *)
let test_blackscholes_zero_reuse () =
  let bd = Analysis.Reuse_report.byte_breakdown (reuse_run "blackscholes") in
  Alcotest.(check bool) "zero-reuse dominant" true (bd.Analysis.Reuse_report.zero > 0.9)

(* bodytrack: FlexImage::Set's box communicates almost nothing (S = 1.000) *)
let test_bodytrack_fleximage_breakeven () =
  let sigil, cg = run ~reuse:false "bodytrack" in
  let cdfg = Analysis.Cdfg.build ~callgrind:cg sigil in
  let set_ctx =
    List.find
      (fun ctx -> (Analysis.Cdfg.node cdfg ctx).Analysis.Cdfg.name = "FlexImage::Set")
      (Analysis.Cdfg.contexts cdfg)
  in
  let s = Analysis.Partition.breakeven cdfg set_ctx in
  Alcotest.(check bool) (Printf.sprintf "S=%.4f close to 1.000" s) true (s < 1.002)

(* canneal & swaptions: the low-coverage exceptions of Fig 7 *)
let test_low_coverage_exceptions () =
  Alcotest.(check bool) "canneal low" true (coverage "canneal" < 0.5);
  Alcotest.(check bool) "swaptions low" true (coverage "swaptions" < 0.5);
  Alcotest.(check bool) "blackscholes high" true (coverage "blackscholes" > 0.5)

(* dedup: the suite's largest shadow footprint (Fig 6's outlier) *)
let test_dedup_largest_footprint () =
  let footprint name = Sigil.Tool.shadow_footprint_peak_bytes (reuse_run name) in
  let dedup = footprint "dedup" in
  List.iter
    (fun other ->
      Alcotest.(check bool) ("dedup > " ^ other) true (dedup > footprint other))
    [ "blackscholes"; "canneal"; "streamcluster"; "vips" ]

(* fluidanimate: ComputeForces dominates and the program is serial *)
let test_fluidanimate_computeforces () =
  let tool = reuse_run "fluidanimate" in
  Alcotest.(check bool) "ComputeForces >= 60% of ops" true
    (fn_share_of_ops tool "ComputeForces" > 0.6);
  Alcotest.(check bool) "serial program" true (parallelism "fluidanimate" < 1.5)

(* streamcluster: highest parallelism, PRNG chain on the critical path *)
let test_streamcluster_parallelism () =
  let sc = parallelism "streamcluster" in
  Alcotest.(check bool) "high limit" true (sc > 10.0);
  Alcotest.(check bool) "above fluidanimate" true (sc > parallelism "fluidanimate")

(* vips: conv_gen's lifetimes dwarf imb_XYZ2Lab's (Figs 9-11), taking
   each function's longest average lifetime over all of its contexts *)
let test_vips_lifetime_ordering () =
  let snap = Sigil.Profile_io.snapshot_of_tool (reuse_run "vips") in
  let reuse = Option.get (Sigil.Profile_io.reuse snap) in
  let avg name =
    List.fold_left
      (fun acc ctx ->
        let r = Sigil.Reuse.fn_reuse reuse ctx in
        if r.reused_episodes = 0 then acc
        else max acc (float_of_int r.lifetime_sum /. float_of_int r.reused_episodes))
      0.0
      (Analysis.Reuse_report.find_contexts snap name)
  in
  let conv = avg "conv_gen" and xyz = avg "imb_XYZ2Lab" in
  Alcotest.(check bool) "imb_XYZ2Lab re-uses data" true (xyz > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "conv %.0f >> xyz %.0f" conv xyz)
    true
    (conv > 100.0 *. xyz)

(* raytrace: hot BVH ancestors give >1000-reuse lines (Fig 12) *)
let test_raytrace_hot_lines () =
  let w = Helpers.find_workload "raytrace" in
  let tool = ref None in
  let _ =
    Dbi.Runner.run
      ~tools:
        [
          (fun m ->
            let t =
              Sigil.Tool.create ~options:(Sigil.Options.with_line_size Sigil.Options.default 64) m
            in
            tool := Some t;
            Sigil.Tool.tool t);
        ]
      (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall)
  in
  let line = Option.get (Sigil.Tool.line_shadow (Option.get !tool)) in
  let b = Sigil.Line_shadow.bins line in
  Alcotest.(check bool) "hot lines exist" true
    (b.Sigil.Line_shadow.under_10000 + b.Sigil.Line_shadow.over_10000 > 0)

(* libquantum: block-parallel gates give a high limit (Fig 13) *)
let test_libquantum_parallelism () =
  let p = parallelism "libquantum" in
  Alcotest.(check bool) (Printf.sprintf "limit %.1f > 5" p) true (p > 5.0)

(* dedup: write_file and adler32 sit near the bottom of the candidate list
   (Table III flavour: I/O and checksum wrappers are poor accelerators) *)
let test_dedup_bottom_candidates () =
  let sigil, cg = run ~reuse:false "dedup" in
  let trimmed = Analysis.Partition.trim (Analysis.Cdfg.build ~callgrind:cg sigil) in
  let ranked = Analysis.Partition.rank trimmed in
  let bottom =
    List.map
      (fun (c : Analysis.Partition.candidate) -> c.Analysis.Partition.name)
      (Analysis.Partition.bottom 4 ranked)
  in
  Alcotest.(check bool) "write_file or adler32 in the worst four" true
    (List.mem "write_file" bottom || List.mem "adler32" bottom)

(* Every case study reads the same from a run's live snapshot as from its
   saved profile: Callgrind's costs and the reuse summary survive
   [Profile_file.save] and [load] exactly. *)
let analyses snap =
  let module P = Sigil.Profile_io in
  let module R = Analysis.Reuse_report in
  let lines f l = String.concat "\n" (List.map f l) in
  let ranked = Analysis.Partition.rank (Analysis.Partition.trim (Analysis.Cdfg.of_snapshot snap)) in
  let b = R.breakdown snap and top = R.top snap in
  [
    ( "partition",
      lines
        (fun (c : Analysis.Partition.candidate) ->
          Printf.sprintf "%s %h %h" c.path c.breakeven c.coverage)
        ranked );
    ("breakdown", Printf.sprintf "%h %h %h %d" b.zero b.one_to_nine b.over_nine b.elements);
    ( "top reusers",
      lines
        (fun (r : R.fn_row) ->
          Printf.sprintf "%d %s %h %d %d %h" r.ctx r.label r.avg_lifetime r.reuse_reads
            r.unique_bytes r.unique_share)
        top );
    ( "lifetime histograms",
      lines
        (fun (r : R.fn_row) ->
          R.lifetime_histogram snap (P.name snap r.ctx)
          |> lines (fun (bin, n) -> Printf.sprintf "%d %d" bin n))
        top );
    ("render", P.render snap);
    ( "callgrind-out",
      Format.asprintf "%t"
        (Callgrind.Output.write (P.names snap)
           ~calls:(fun ctx -> (P.stats snap ctx).calls)
           (Option.get (P.costs snap))) );
  ]

let test_saved_profiles_analyse_alike () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let sigil, cg = run ~reuse:true w.name in
      let live = Sigil.Profile_io.snapshot_of_tool ~callgrind:cg sigil in
      let loaded =
        Helpers.with_temp (fun path ->
            Tracefile.Profile_file.save live path;
            Tracefile.Profile_file.load path)
      in
      List.iter2
        (fun (what, a) (_, b) -> Alcotest.(check string) (w.name ^ ": " ^ what) a b)
        (analyses live) (analyses loaded))
    Workloads.Suite.parsec

let suite =
  ( "workload_signatures",
    [
      ( "signatures",
        [
          Alcotest.test_case "blackscholes zero reuse" `Quick test_blackscholes_zero_reuse;
          Alcotest.test_case "bodytrack FlexImage::Set" `Quick
            test_bodytrack_fleximage_breakeven;
          Alcotest.test_case "low-coverage exceptions" `Slow test_low_coverage_exceptions;
          Alcotest.test_case "dedup largest footprint" `Slow test_dedup_largest_footprint;
          Alcotest.test_case "fluidanimate ComputeForces" `Quick
            test_fluidanimate_computeforces;
          Alcotest.test_case "streamcluster parallelism" `Quick
            test_streamcluster_parallelism;
          Alcotest.test_case "vips lifetime ordering" `Quick test_vips_lifetime_ordering;
          Alcotest.test_case "raytrace hot lines" `Quick test_raytrace_hot_lines;
          Alcotest.test_case "libquantum parallelism" `Quick test_libquantum_parallelism;
          Alcotest.test_case "dedup bottom candidates" `Slow test_dedup_bottom_candidates;
          Alcotest.test_case "saved profiles analyse alike" `Slow
            test_saved_profiles_analyse_alike;
        ] );
    ] )
