(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figs 4-13, Tables II-III) and runs the deterministic
   ablations called out in DESIGN.md. See EXPERIMENTS.md for
   paper-vs-measured.

     dune exec bench/main.exe *)

open Bench_util

let parsec = List.map (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name) Workloads.Suite.parsec
let small = Workloads.Scale.Simsmall
let medium = Workloads.Scale.Simmedium

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5: instrumentation slowdowns                          *)
(* ------------------------------------------------------------------ *)

type overhead = {
  o_name : string;
  o_scale : Workloads.Scale.t;
  native_s : float;
  callgrind_s : float;
  sigil_s : float;
}

(* simsmall guest runs are milliseconds long, so take the best of two
   measurements; simmedium runs are long enough to measure once. *)
let repeats scale = if scale = small then 2 else 1

let best n f =
  let rec go best_s k = if k = 0 then best_s else go (min best_s (f ())) (k - 1) in
  go (f ()) (n - 1)

let measure_overhead name scale =
  let n = repeats scale in
  let native_s = best n (fun () -> native_time name scale) in
  let w = workload name in
  let callgrind_s =
    best n (fun () ->
        (Driver.run_workload ~with_sigil:false ~with_callgrind:true w scale).Driver.elapsed_s)
  in
  let sigil_s =
    best n (fun () ->
        (Driver.run_workload ~options:(baseline_options name) ~with_callgrind:true w scale)
          .Driver.elapsed_s)
  in
  {
    o_name = name;
    o_scale = scale;
    native_s = max native_s 1e-6;
    callgrind_s;
    sigil_s;
  }

let fig4_5_6 () =
  banner "Fig 4/5: slowdown of Sigil and Callgrind relative to native";
  (* the one wall-clock figure: every run is timed alone on the main
     domain, never inside a pool task, whatever --domains says *)
  pf "precondition: runs timed one at a time on the main domain (host reports %d cores)\n"
    (Domain.recommended_domain_count ());
  let rows = List.map (fun n -> measure_overhead n small) parsec in
  let rows_medium = List.map (fun n -> measure_overhead n medium) parsec in
  print_string (section "Fig 4: slowdown vs native (simsmall)");
  print_string
    (Analysis.Table.render
       ~headers:[ "benchmark"; "native (s)"; "Callgrind x"; "Sigil x"; "Sigil/Callgrind" ]
       (List.map
          (fun r ->
            [
              r.o_name;
              Printf.sprintf "%.4f" r.native_s;
              Printf.sprintf "%.1f" (r.callgrind_s /. r.native_s);
              Printf.sprintf "%.1f" (r.sigil_s /. r.native_s);
              Printf.sprintf "%.2f" (r.sigil_s /. r.callgrind_s);
            ])
          rows));
  let avg f rows = List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows) in
  pf "\naverage slowdown vs native: Sigil %.1fx, Callgrind %.1fx\n"
    (avg (fun r -> r.sigil_s /. r.native_s) rows)
    (avg (fun r -> r.callgrind_s /. r.native_s) rows);
  print_string (section "Fig 5: slowdown of Sigil relative to Callgrind");
  List.iter
    (fun (label, rs) ->
      pf "%s\n" label;
      print_string
        (Analysis.Table.bar_chart
           ~fmt:(fun v -> Printf.sprintf "%.2fx" v)
           (List.map (fun r -> (r.o_name, r.sigil_s /. r.callgrind_s)) rs)))
    [ ("simsmall:", rows); ("simmedium:", rows_medium) ];
  pf
    "\ndedup runs with the FIFO memory limiter (--max-chunks %d), the paper's\n\
     outlier; its relative slowdown includes eviction work.\n"
    dedup_max_chunks;

  banner "Fig 6: Sigil shadow-memory usage (baseline profiling)";
  let footprint rows =
    List.map
      (fun r ->
        let run = paired_run r.o_name r.o_scale in
        ( r.o_name,
          float_of_int (Sigil.Tool.shadow_footprint_peak_bytes (Driver.sigil run)) /. 1e6 ))
      rows
  in
  let fp_small = footprint rows and fp_medium = footprint rows_medium in
  print_string
    (Analysis.Table.render
       ~headers:[ "benchmark"; "simsmall (MB)"; "simmedium (MB)" ]
       (List.map2
          (fun (n, s) (_, m) -> [ n; Printf.sprintf "%.1f" s; Printf.sprintf "%.1f" m ])
          fp_small fp_medium));
  let evictions =
    Sigil.Tool.shadow_evictions (Driver.sigil (paired_run "dedup" medium))
  in
  pf "\ndedup simmedium evictions under the memory limit: %d\n" evictions

(* ------------------------------------------------------------------ *)
(* Figure 7 and Tables II/III: partitioning                            *)
(* ------------------------------------------------------------------ *)

let trimmed name =
  Analysis.Partition.trim (Analysis.Cdfg.of_snapshot (saved_profile (paired_run name small)))

let fig7_tables () =
  banner "Fig 7: coverage of the trimmed-calltree leaves";
  let coverages = pmap (fun n -> (n, (trimmed n).Analysis.Partition.coverage)) parsec in
  print_string
    (Analysis.Table.bar_chart
       ~fmt:(fun v -> Printf.sprintf "%.0f%%" (100.0 *. v))
       coverages);
  pf "\nlow-coverage exceptions (paper: canneal, ferret, swaptions):\n";
  List.iter
    (fun (n, c) -> if c < 0.5 then pf "  %-14s %.0f%%\n" n (100.0 *. c))
    coverages;

  banner "Tables II/III: breakeven speedups of best/worst candidates";
  let table_benchmarks = [ "blackscholes"; "bodytrack"; "canneal"; "dedup" ] in
  let ranked_tables = pmap (fun name -> (name, Analysis.Partition.rank (trimmed name))) table_benchmarks in
  List.iter
    (fun (name, ranked) ->
      let render title cands =
        print_string (section (Printf.sprintf "%s: %s" name title));
        print_string
          (Analysis.Table.render
             ~headers:[ "function"; "S(breakeven)"; "coverage" ]
             (List.map
                (fun (c : Analysis.Partition.candidate) ->
                  [
                    c.Analysis.Partition.name;
                    Printf.sprintf "%.3f" c.Analysis.Partition.breakeven;
                    Printf.sprintf "%5.2f%%" (100.0 *. c.Analysis.Partition.coverage);
                  ])
                cands))
      in
      render "top 5 (Table II)" (Analysis.Partition.top 5 ranked);
      render "bottom 5 (Table III)" (Analysis.Partition.bottom 5 ranked))
    ranked_tables

(* ------------------------------------------------------------------ *)
(* Figures 8-11: data re-use                                           *)
(* ------------------------------------------------------------------ *)

let fig8_to_11 () =
  banner "Fig 8: breakdown of data bytes by re-use count (simsmall)";
  List.iter
    (fun name ->
      let bd = Analysis.Reuse_report.breakdown (saved_profile (reuse_run name small)) in
      pf "%-14s %s" name
        (Analysis.Table.stacked_bar
           [
             ("zero", bd.Analysis.Reuse_report.zero);
             ("1-9", bd.Analysis.Reuse_report.one_to_nine);
             (">9", bd.Analysis.Reuse_report.over_nine);
           ]))
    parsec;

  let snap = saved_profile (reuse_run "vips" small) in
  banner "Fig 9: average re-use lifetimes of the top vips functions";
  print_string
    (Analysis.Table.bar_chart
       ~fmt:(fun v -> Printf.sprintf "%.0f instrs" v)
       (List.map
          (fun (r : Analysis.Reuse_report.fn_row) ->
            (r.Analysis.Reuse_report.label, r.Analysis.Reuse_report.avg_lifetime))
          (Analysis.Reuse_report.top ~n:8 snap)));

  List.iter
    (fun (figure, fn) ->
      banner (Printf.sprintf "Fig %s: re-use lifetime distribution of %S in vips" figure fn);
      let hist = Analysis.Reuse_report.lifetime_histogram_dominant snap fn in
      print_string
        (Analysis.Table.bar_chart
           ~fmt:(Printf.sprintf "%.0f")
           (List.map (fun (bin, c) -> (string_of_int bin, float_of_int c)) hist));
      let total = List.fold_left (fun a (_, c) -> a + c) 0 hist in
      let peak_bin, _ =
        List.fold_left (fun (b, c) (b', c') -> if c' > c then (b', c') else (b, c)) (0, 0) hist
      in
      pf "reused-byte episodes: %d; modal lifetime bin: %d\n" total peak_bin)
    [ ("10", "conv_gen"); ("11", "imb_XYZ2Lab") ]

(* ------------------------------------------------------------------ *)
(* Figure 12: line-granularity re-use                                  *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  banner "Fig 12: breakdown of 64B lines by re-use count (simsmall)";
  List.iter
    (fun name ->
      let run = line_run name small in
      let line = Option.get (Sigil.Tool.line_shadow (Driver.sigil run)) in
      let u10, u100, u1k, u10k, o10k = Sigil.Line_shadow.bin_fractions line in
      pf "%-14s %s" name
        (Analysis.Table.stacked_bar
           [ ("<10", u10); ("<100", u100); ("<1k", u1k); ("<10k", u10k); (">10k", o10k) ]))
    parsec

(* ------------------------------------------------------------------ *)
(* Figure 13: function-level parallelism                               *)
(* ------------------------------------------------------------------ *)

let fig13_benchmarks =
  [ "blackscholes"; "bodytrack"; "canneal"; "dedup"; "fluidanimate"; "streamcluster";
    "swaptions"; "libquantum" ]

let fig13 () =
  banner "Fig 13: maximum speedup based on function-level parallelism";
  let results =
    pmap
      (fun name ->
        (* the workload runs inside the analysis' stream *)
        let run = ref None in
        let cp =
          Analysis.Critpath.analyze_stream (fun emit ->
              run :=
                Some
                  (Driver.run_workload ~options:Sigil.Options.(with_events default)
                     ~event_sink:emit (workload name) small))
        in
        (name, Option.get !run, cp))
      fig13_benchmarks
  in
  print_string
    (Analysis.Table.bar_chart
       ~fmt:(fun v -> Printf.sprintf "%.1fx" v)
       (List.map (fun (n, _, cp) -> (n, Analysis.Critpath.parallelism cp)) results));
  List.iter
    (fun name ->
      let _, run, cp = List.find (fun (n, _, _) -> n = name) results in
      let snap = Sigil.Profile_io.snapshot_of_tool (Driver.sigil run) in
      let path =
        Analysis.Critpath.critical_path_contexts cp
        |> List.filter (fun ctx -> ctx <> Dbi.Context.root)
        |> List.map (Sigil.Profile_io.name snap)
      in
      let shown = List.filteri (fun i _ -> i < 8) path in
      pf "%s critical path (leaf -> main): %s%s\n" name
        (String.concat " -> " shown)
        (if List.length path > 8 then " -> ..." else ""))
    [ "streamcluster"; "fluidanimate" ];
  (* scheduling-slot application: speedup saturates at the parallelism limit *)
  pf "\nlist-scheduling the chains onto N cores (speedup / utilization):\n";
  pf "%-14s" "benchmark";
  List.iter (fun cores -> pf "  %12s" (Printf.sprintf "%d cores" cores)) [ 2; 4; 8; 16 ];
  pf "\n";
  List.iter
    (fun (name, _, cp) ->
      pf "%-14s" name;
      List.iter
        (fun cores ->
          let s = Analysis.Critpath.schedule cp ~cores in
          pf "  %5.1fx %4.0f%%" s.Analysis.Critpath.speedup
            (100.0 *. s.Analysis.Critpath.utilization))
        [ 2; 4; 8; 16 ];
      pf "\n")
    results

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §5)                                            *)
(* ------------------------------------------------------------------ *)

let ablation_memory_limit () =
  banner "Ablation: FIFO memory limiter on/off (dedup, simsmall)";
  let w = workload "dedup" in
  let run options = Driver.run_workload ~options w small in
  match pmap run [ Sigil.Options.default; Sigil.Options.with_max_chunks Sigil.Options.default 64 ] with
  | [ unlimited; limited ] ->
    let footprint r = float_of_int (Sigil.Tool.shadow_footprint_peak_bytes (Driver.sigil r)) /. 1e6 in
    let unique r = fst (Sigil.Profile.totals (Sigil.Tool.profile (Driver.sigil r))) in
    pf "unlimited: %.1f MB peak, %d unique read bytes\n" (footprint unlimited) (unique unlimited);
    pf "limited:   %.1f MB peak, %d unique read bytes (%d evictions)\n" (footprint limited)
      (unique limited)
      (Sigil.Tool.shadow_evictions (Driver.sigil limited));
    pf "accuracy loss on unique counts: %.3f%%\n"
      (100.0
      *. Float.abs (float_of_int (unique limited - unique unlimited))
      /. float_of_int (max 1 (unique unlimited)))
  | _ -> assert false

let ablation_reader_set () =
  banner "Ablation: last-reader heuristic vs exact reader sets";
  (* worst case for the heuristic: one long call of f whose re-reads are
     interleaved with another reader, so the single last-reader pointer
     never sees f as "the last reader" even though this very call already
     consumed the byte *)
  let adversarial m =
    Dbi.Guest.call m "main" (fun () ->
        let a = Dbi.Guest.alloc m 64 in
        Dbi.Guest.call m "w" (fun () -> Dbi.Guest.write m a 8);
        Dbi.Guest.call m "f" (fun () ->
            for _ = 1 to 50 do
              Dbi.Guest.read m a 8;
              Dbi.Guest.call m "g" (fun () -> Dbi.Guest.read m a 8)
            done))
  in
  let compare_counts body label =
    let exact = Exact_shadow.create () in
    let sigil_tool = ref None in
    let _ =
      Dbi.Runner.run ~call_overhead:0
        ~tools:
          [
            (fun m ->
              let t = Sigil.Tool.create m in
              sigil_tool := Some t;
              Sigil.Tool.tool t);
            Exact_shadow.tool exact;
          ]
        body
    in
    let heuristic = fst (Sigil.Profile.totals (Sigil.Tool.profile (Option.get !sigil_tool))) in
    let truth = Exact_shadow.unique_reads exact in
    pf "%-28s heuristic unique: %8d   exact unique: %8d   overcount: %+.1f%%\n" label heuristic
      truth
      (100.0 *. float_of_int (heuristic - truth) /. float_of_int (max 1 truth))
  in
  compare_counts adversarial "adversarial alternation";
  let w = workload "canneal" in
  compare_counts (fun m -> w.Workloads.Workload.run m small) "canneal simsmall";
  pf
    "The single last-reader pointer (Table I) counts interleaved re-reads as\n\
     unique; real workloads rarely interleave that tightly, so the gap stays small.\n"

(* The range engine's batching factor, read off the shadow's own counters
   on the Fig 4-7 runs: every coalesced run is one profile and transfer
   update where a per-byte engine would make one per byte. *)
let ablation_range_batching () =
  banner "Ablation: range-batched shadow reads (Fig 4-7 runs, simsmall)";
  let rows =
    List.map
      (fun name ->
        let tool = Driver.sigil (paired_run name small) in
        let get = Telemetry.get_int (Telemetry.of_samples (Sigil.Tool.telemetry tool)) in
        (name, get "shadow.range_reads", get "shadow.range_read_bytes", get "shadow.range_runs"))
      parsec
  in
  let per_run bytes runs = float_of_int bytes /. float_of_int (max 1 runs) in
  let reads, bytes, runs =
    List.fold_left
      (fun (r, b, n) (_, r', b', n') -> (r + r', b + b', n + n'))
      (0, 0, 0) rows
  in
  print_string
    (Analysis.Table.render
       ~headers:[ "benchmark"; "range reads"; "read bytes"; "runs"; "bytes/run" ]
       (List.map
          (fun (name, reads, bytes, runs) ->
            [
              name;
              string_of_int reads;
              string_of_int bytes;
              string_of_int runs;
              Printf.sprintf "%.2f" (per_run bytes runs);
            ])
          (rows @ [ ("total", reads, bytes, runs) ])));
  pf
    "One chunk lookup per span and one profile/transfer update per coalesced\n\
     run replace the per-byte table walk: bytes/run is the batching factor.\n"

let ablation_granularity () =
  banner "Ablation: byte vs line shadow granularity (x264, simsmall)";
  let w = workload "x264" in
  let run options = Driver.run_workload ~options w small in
  match pmap run [ Sigil.Options.default; Sigil.Options.with_line_size Sigil.Options.default 64 ] with
  | [ byte_run; line_run ] ->
    pf "byte granularity: %.1f MB shadow\n"
      (float_of_int (Sigil.Tool.shadow_footprint_peak_bytes (Driver.sigil byte_run)) /. 1e6);
    pf "line granularity: %d line records\n"
      (Sigil.Line_shadow.lines (Option.get (Sigil.Tool.line_shadow (Driver.sigil line_run))));
    pf "line mode trades per-function attribution for footprint and speed.\n"
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Events: framed binary traces vs their text dump (sizes)             *)
(* ------------------------------------------------------------------ *)

(* Streams an events-mode run of [name] into a binary trace at [path]
   and returns the closed writer; the header fingerprints [options], the
   default when omitted. *)
let write_trace ?options name path =
  let w = Tracefile.Writer.create ?options path in
  let run =
    Driver.run_workload
      ~options:(Sigil.Options.with_events (Option.value options ~default:Sigil.Options.default))
      ~event_sink:(Tracefile.Writer.sink w) (workload name) small
  in
  let m = run.Driver.machine in
  Tracefile.Writer.close_names
    (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m)) w;
  w

(* Every figure here is a size: a pure function of the code, so
   BENCH_events.json is identical run to run and at any --domains. *)
let events_bench () =
  banner "Events: framed binary event traces vs text (simsmall)";
  let file_size path = Int64.to_int (In_channel.with_open_bin path In_channel.length) in
  let rows =
    pmap
      (fun name ->
        let tf = Filename.temp_file ("bench_events_" ^ name) ".tf" in
        let txt = Filename.temp_file ("bench_events_" ^ name) ".txt" in
        Fun.protect
          ~finally:(fun () -> List.iter Sys.remove [ tf; txt ])
          (fun () ->
            let entries = Tracefile.Writer.entries (write_trace name tf) in
            (* the text column is the dump of the trace just written *)
            let dumped = Tracefile.Convert.binary_to_text tf txt in
            if dumped <> entries then
              failwith (Printf.sprintf "events bench: %s dumped %d of %d" name dumped entries);
            (name, entries, file_size txt, file_size tf)))
      parsec
  in
  pf "%-14s %9s %10s %10s %6s\n" "workload" "entries" "text B" "binary B" "ratio";
  List.iter
    (fun (name, entries, text_b, bin_b) ->
      pf "%-14s %9d %10d %10d %5.1fx\n" name entries text_b bin_b
        (float_of_int text_b /. float_of_int bin_b))
    rows;
  let tot f = List.fold_left (fun a r -> a + f r) 0 rows in
  let total_text = tot (fun (_, _, t, _) -> t) in
  let total_bin = tot (fun (_, _, _, b) -> b) in
  pf "total: %d B text, %d B binary (%.1fx smaller)\n" total_text total_bin
    (float_of_int total_text /. float_of_int total_bin);
  (* the sink the tool streams through during a run buffers at most one
     chunk: demonstrate on the paper's memory-limit workload *)
  let stream_tf = Filename.temp_file "bench_events_stream" ".tf" in
  let w =
    write_trace ~options:(Sigil.Options.with_events (baseline_options "dedup")) "dedup" stream_tf
  in
  Sys.remove stream_tf;
  let stream_records = Tracefile.Writer.entries w in
  let stream_chunks = Tracefile.Writer.chunks w in
  let stream_peak = Tracefile.Writer.peak_buffer_bytes w in
  pf "streaming sink (dedup): %d records in %d chunks, peak buffer %d B (chunk target %d B)\n"
    stream_records stream_chunks stream_peak Tracefile.Frame.default_chunk_bytes;
  Dbi.Atomic_file.write "BENCH_events.json" (fun oc ->
      Printf.fprintf oc "{\n  \"scale\": \"simsmall\",\n  \"workloads\": [\n";
      List.iteri
        (fun i (name, entries, text_b, bin_b) ->
          Printf.fprintf oc
            "    {\"name\": %S, \"entries\": %d, \"text_bytes\": %d, \"binary_bytes\": %d, \
             \"ratio\": %.2f}%s\n"
            name entries text_b bin_b
            (float_of_int text_b /. float_of_int bin_b)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc
        "  ],\n\
        \  \"total_text_bytes\": %d,\n\
        \  \"total_binary_bytes\": %d,\n\
        \  \"total_ratio\": %.2f,\n\
        \  \"stream\": {\"workload\": \"dedup\", \"records\": %d, \"chunks\": %d, \
         \"peak_buffer_bytes\": %d, \"chunk_target_bytes\": %d}\n\
         }\n"
        total_text total_bin
        (float_of_int total_text /. float_of_int total_bin)
        stream_records stream_chunks stream_peak Tracefile.Frame.default_chunk_bytes);
  pf "wrote BENCH_events.json\n"

(* ------------------------------------------------------------------ *)
(* Events path allocation, stage by stage                              *)
(* ------------------------------------------------------------------ *)

(* set from --scale; only the alloc section reads it *)
let alloc_scale = ref small

(* stages over the bound; a non-zero count turns into exit code 1 *)
let alloc_failures = ref 0

(* A stage allocating more minor words per retired instruction than this
   has grown a per-event allocation: the events path lends entries and
   keeps its state in int arrays, so what is left is per chunk and per
   run. *)
let alloc_bound = 0.01

(* Major words less those promoted from the minor heap: what went
   straight to the major heap, as blocks of chunk size do. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* The minor and direct major words [f] allocates; the major counters are
   read outside the minor window, so the minor count is [f]'s alone. *)
let words f =
  let major = direct_major_words () in
  let before = Gc.minor_words () in
  let r = f () in
  let minor = Gc.minor_words () -. before in
  ((minor, direct_major_words () -. major), r)

let ( -- ) (a, b) (c, d) = (a -. c, b -. d)

(* The stages of the Fig 13 pipeline, and whether [alloc_bound] gates
   them: the guest program is the workload's own, and [schedule] builds
   per-node arrays once per call. *)
let alloc_stage_names =
  [|
    ("guest program (Dbi.Tool.nop)", false);
    ("Sigil emission into a null sink", true);
    ("Tracefile.Writer", true);
    ("one decode pass (Reader.iter)", true);
    ("analyze_stream beyond its decode", true);
    ("schedule (4 cores)", false);
  |]

(* Retired instructions of one workload and the minor and direct major
   words of each stage in [alloc_stage_names], as the difference from the
   stage before it; a decode pass and [schedule] are measured alone. Both
   counts repeat exactly run to run at one domain, so the host does not
   matter. *)
let alloc_stages name scale =
  let w = workload name in
  let options = Sigil.Options.(with_events default) in
  let run tool = Dbi.Runner.run ~tools:[ tool ] (fun m -> w.Workloads.Workload.run m scale) in
  let sigil sink m = Sigil.Tool.tool (Sigil.Tool.create ~options ~event_sink:sink m) in
  let nop, r = words (fun () -> run (fun _ -> Dbi.Tool.nop "nop")) in
  let null, _ = words (fun () -> run (sigil ignore)) in
  let tf = Filename.temp_file ("bench_alloc_" ^ name) ".tf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tf)
    (fun () ->
      let written, () =
        words (fun () ->
            let wr = Tracefile.Writer.create ~options tf in
            let m = (run (sigil (Tracefile.Writer.sink wr))).Dbi.Runner.machine in
            Tracefile.Writer.close_names
              (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m))
              wr)
      in
      let read f =
        let rd = Tracefile.Reader.open_file tf in
        Fun.protect
          ~finally:(fun () -> Tracefile.Reader.close rd)
          (fun () -> words (fun () -> f rd))
      in
      let decode, () = read (fun rd -> Tracefile.Reader.iter rd ignore) in
      let analyze, cp =
        read (fun rd -> Analysis.Critpath.analyze_stream (Tracefile.Reader.iter rd))
      in
      let schedule, _ = words (fun () -> Analysis.Critpath.schedule cp ~cores:4) in
      let stages = [| nop; null -- nop; written -- null; decode; analyze -- decode; schedule |] in
      (Dbi.Machine.now r.Dbi.Runner.machine, Array.map fst stages, Array.map snd stages))

(* One table of words per retired instruction, stage by stage; [bound]
   gates the stages marked so. *)
let alloc_table ?bound runs instr kind pick =
  pf "%-34s" "stage";
  List.iter (fun (name, _) -> pf " %13s" name) runs;
  pf " %13s\n" "all";
  Array.iteri
    (fun k (stage, gated) ->
      pf "%-34s" stage;
      List.iter
        (fun (name, (i, minor, major)) ->
          let v = (pick minor major).(k) /. float_of_int i in
          pf " %13.4f" v;
          match bound with
          | Some bound when gated && v > bound ->
            incr alloc_failures;
            Printf.eprintf "alloc: %s: %s allocates %.4f %s words per instruction (bound %g)\n"
              name stage v kind bound
          | _ -> ())
        runs;
      let words =
        List.fold_left (fun acc (_, (_, minor, major)) -> acc +. (pick minor major).(k)) 0. runs
      in
      pf " %13.4f\n" (words /. float_of_int instr))
    alloc_stage_names

let alloc_bench () =
  let scale = !alloc_scale in
  banner
    (Printf.sprintf "Events path allocation: minor words per retired instruction (%s)"
       (Workloads.Scale.name scale));
  let runs =
    List.map
      (fun name -> (name, alloc_stages name scale))
      [ "canneal"; "streamcluster"; "blackscholes" ]
  in
  let instr = List.fold_left (fun acc (_, (i, _, _)) -> acc + i) 0 runs in
  alloc_table ~bound:alloc_bound runs instr "minor" (fun minor _ -> minor);
  pf "%d retired instructions; gated stages (emission, writer, decode, analyze) bound %g\n" instr
    alloc_bound;
  pf "\ndirect major words per retired instruction (major less promoted):\n";
  alloc_table runs instr "major" (fun _ major -> major)

(* failed workloads (Driver.run_many isolates them); a non-zero count turns
   into exit code 3 (valid but incomplete results) at the end of the run *)
let suite_failures = ref 0

(* ------------------------------------------------------------------ *)
(* Suite: sequential vs domain-parallel full-evaluation wall-clock     *)
(* ------------------------------------------------------------------ *)

(* set from --domains; the suite section sizes its own pool with it so the
   comparison measures exactly N domains *)
let suite_domains = ref (Pool.recommended ())

let suite_bench () =
  let domains = !suite_domains in
  banner
    (Printf.sprintf "Suite: full PARSEC sweep, sequential vs %d-domain pool (simsmall)" domains);
  (* the Fig 4-7 configuration: Sigil on top of Callgrind, dedup limited *)
  let jobs () =
    List.map
      (fun name ->
        Driver.job ~options:(baseline_options name) ~with_callgrind:true (workload name) small)
      parsec
  in
  (* fingerprint the surviving runs only — failed jobs are reported, and
     the sequential/parallel comparison stays meaningful over the rest *)
  let fingerprint results =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.filter_map
               (function
                 | Ok r -> Some (Sigil.Profile_io.to_string (Driver.sigil r))
                 | Error _ -> None)
               results)))
  in
  let report_failures which results =
    List.iter
      (function
        | Ok _ -> ()
        | Error e ->
          incr suite_failures;
          pf "FAILED (%s): %s\n" which (Driver.Run_error.to_string e))
      results
  in
  let t0 = Dbi.Machine.monotonic_s () in
  let seq = Driver.run_many (jobs ()) in
  let sequential_s = Dbi.Machine.monotonic_s () -. t0 in
  let t1 = Dbi.Machine.monotonic_s () in
  let par =
    if domains > 1 then
      Pool.with_pool ~domains (fun p -> Driver.run_many ~pool:p (jobs ()))
    else Driver.run_many (jobs ())
  in
  let parallel_s = Dbi.Machine.monotonic_s () -. t1 in
  report_failures "sequential" seq;
  report_failures "parallel" par;
  let fp_seq = fingerprint seq and fp_par = fingerprint par in
  let cores = Domain.recommended_domain_count () in
  (* a speedup is published only when the pool really had its cores *)
  let preconditions =
    [ ("domains > 1", domains > 1); ("host_cores >= domains", cores >= domains) ]
  in
  let failed = List.filter_map (fun (c, ok) -> if ok then None else Some c) preconditions in
  let speedup = sequential_s /. Float.max parallel_s 1e-9 in
  pf "%d workloads, %d domains (host reports %d cores)\n" (List.length parsec) domains cores;
  pf "sequential: %.3fs   parallel: %.3fs   " sequential_s parallel_s;
  if failed = [] then pf "speedup: %.2fx\n" speedup
  else pf "speedup withheld: precondition failed: %s\n" (String.concat "; " failed);
  pf "profile fingerprint: sequential %s, parallel %s -> %s\n" fp_seq fp_par
    (if fp_seq = fp_par then "bit-identical" else "MISMATCH");
  Dbi.Atomic_file.write "BENCH_suite.json" (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"workloads\": %d,\n\
        \  \"scale\": \"simsmall\",\n\
        \  \"domains\": %d,\n\
        \  \"host_cores\": %d,\n\
        \  \"sequential_s\": %.3f,\n\
        \  \"parallel_s\": %.3f,\n\
        \  \"preconditions\": { %s },\n\
        \  \"speedup\": %s,\n\
        \  \"bit_identical\": %b\n\
         }\n"
        (List.length parsec) domains cores sequential_s parallel_s
        (String.concat ", "
           (List.map (fun (c, ok) -> Printf.sprintf "\"%s\": %b" c ok) preconditions))
        (if failed = [] then Printf.sprintf "%.2f" speedup else "null")
        (fp_seq = fp_par));
  pf "wrote BENCH_suite.json\n";
  if fp_seq <> fp_par then
    failwith "suite determinism violated: parallel profiles differ from sequential"

(* ------------------------------------------------------------------ *)

(* Cached runs the selected sections will ask for, warmed concurrently so
   the sections themselves (which print, and therefore stay on the main
   domain) find them ready. *)
let prewarm selected pool =
  let thunk f = (fun () -> ignore (f ())) in
  let thunks =
    List.concat_map
      (fun (section, _) ->
        match section with
        | "fig4" ->
          List.concat_map
            (fun n ->
              [ thunk (fun () -> paired_run n small); thunk (fun () -> paired_run n medium) ])
            parsec
        | "fig7" | "range" -> List.map (fun n -> thunk (fun () -> paired_run n small)) parsec
        | "fig8" -> List.map (fun n -> thunk (fun () -> reuse_run n small)) parsec
        | "fig12" -> List.map (fun n -> thunk (fun () -> line_run n small)) parsec
        | _ -> [])
      selected
  in
  if thunks <> [] then begin
    pf "prewarming %d cached runs across %d domains\n%!" (List.length thunks) (Pool.size pool);
    ignore (Pool.run pool thunks)
  end

let sections =
  [
    ("fig4", fig4_5_6);
    ("fig7", fig7_tables);
    ("fig8", fig8_to_11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("memlimit", ablation_memory_limit);
    ("readerset", ablation_reader_set);
    ("range", ablation_range_batching);
    ("granularity", ablation_granularity);
    ("events", events_bench);
    ("alloc", alloc_bench);
    ("suite", suite_bench);
  ]

(* A bad argument is one "bench: ..." line on stderr and exit 2, before
   any workload runs. *)
let bad_arg fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

(* [parse_args args] is the selected sections and the domain count; it
   sets [alloc_scale] from --scale. *)
let parse_args args =
  let rec go selected domains = function
    | [] -> (selected, domains)
    | "--only" :: v :: rest ->
      let names = String.split_on_char ',' v in
      List.iter
        (fun n ->
          if not (List.mem_assoc n sections) then
            bad_arg "unknown section %S (have: %s)" n
              (String.concat ", " (List.map fst sections)))
        names;
      go (List.filter (fun (n, _) -> List.mem n names) sections) domains rest
    | "--domains" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> go selected n rest
      | Some _ | None -> bad_arg "--domains: bad count %S" v)
    | "--scale" :: v :: rest -> (
      match Workloads.Scale.of_string v with
      | Ok s ->
        alloc_scale := s;
        go selected domains rest
      | Error e -> bad_arg "--scale: %s" e)
    | [ ("--only" | "--domains" | "--scale") as flag ] -> bad_arg "%s needs a value" flag
    | arg :: _ ->
      bad_arg "unknown argument %S (usage: main.exe [--only SECTION,...] [--domains N] [--scale S])"
        arg
  in
  go sections (Pool.recommended ()) args

(* dune exec bench/main.exe -- [--only sec1,sec2] [--domains N] [--scale S];
   default runs everything on a Pool.recommended-sized pool, and the alloc
   section at simsmall. The events section writes BENCH_events.json and
   the suite section BENCH_suite.json. *)
let () =
  let t0 = Dbi.Machine.monotonic_s () in
  let selected, domains = parse_args (List.tl (Array.to_list Sys.argv)) in
  suite_domains := domains;
  let pool = if domains > 1 then Some (Pool.create ~domains ()) else None in
  Bench_util.set_pool pool;
  (match pool with Some p -> prewarm selected p | None -> ());
  List.iter (fun (_, f) -> f ()) selected;
  (match pool with Some p -> Pool.shutdown p | None -> ());
  banner
    (Printf.sprintf "done in %.1fs (%d domain%s)"
       (Dbi.Machine.monotonic_s () -. t0)
       domains
       (if domains = 1 then "" else "s"));
  if !alloc_failures > 0 then exit 1;
  (* distinct from a crash (any other non-zero): results above are valid
     but incomplete *)
  if !suite_failures > 0 then exit 3
