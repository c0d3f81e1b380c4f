(* Critical-path case study (paper §IV-C): record event files, build
   dependency chains, and compare the function-level parallelism limit
   across workloads (Fig 13), including the paper's two spotlights:
   streamcluster's PRNG chain and fluidanimate's single-function path.

     dune exec examples/critpath_study.exe *)

let benchmarks =
  [ "blackscholes"; "bodytrack"; "canneal"; "dedup"; "fluidanimate"; "streamcluster";
    "swaptions"; "libquantum" ]

let workload name =
  match Workloads.Suite.find name with Ok w -> w | Error e -> failwith e

let run_events ~event_sink name =
  Driver.run_workload ~options:Sigil.Options.(with_events default) ~event_sink (workload name)
    Workloads.Scale.Simsmall

(* The workload runs inside the analysis' stream: every event goes
   straight into the dependency DAG and none is kept. *)
let analyze name =
  let run = ref None in
  let cp =
    Analysis.Critpath.analyze_stream (fun emit -> run := Some (run_events ~event_sink:emit name))
  in
  (Option.get !run, cp)

let () =
  let results = List.map (fun name -> (name, analyze name)) benchmarks in

  print_string
    (Analysis.Table.section "Maximum speedup based on function-level parallelism (Fig 13)");
  print_string
    (Analysis.Table.bar_chart
       ~fmt:(fun v -> Printf.sprintf "%.1fx" v)
       (List.map (fun (name, (_, cp)) -> (name, Analysis.Critpath.parallelism cp)) results));

  (* the paper's two drill-downs *)
  List.iter
    (fun name ->
      let r, cp = List.assoc name results in
      let snap = Sigil.Profile_io.snapshot_of_tool (Driver.sigil r) in
      let path =
        Analysis.Critpath.critical_path_contexts cp
        |> List.map (Sigil.Profile_io.name snap)
        |> List.filter (fun n -> n <> "<root>")
      in
      Printf.printf "\n%s critical path (leaf -> main):\n  %s\n" name (String.concat " -> " path);
      Printf.printf "  serial %d ops, critical path %d ops, limit %.1fx\n"
        (Analysis.Critpath.serial_length cp)
        (Analysis.Critpath.critical_path_length cp)
        (Analysis.Critpath.parallelism cp))
    [ "streamcluster"; "fluidanimate" ];

  print_endline
    "\nstreamcluster is many short paths serialized only by the PRNG state walking\n\
     drand48_iterate -> nrand48_r -> lrand48; fluidanimate is one long chain of\n\
     ComputeForces calls, so accelerating that single function is the only lever.";

  (* scheduling slots: map the chains onto a fixed number of cores *)
  let name = "streamcluster" in
  let _, cp = List.assoc name results in
  print_string
    (Analysis.Table.section
       (Printf.sprintf "%s: list-scheduling the chains onto N cores" name));
  List.iter
    (fun cores ->
      let s = Analysis.Critpath.schedule cp ~cores in
      Printf.printf "%2d cores: speedup %6.2fx  utilization %5.1f%%\n" cores
        s.Analysis.Critpath.speedup
        (100.0 *. s.Analysis.Critpath.utilization))
    [ 1; 2; 4; 8; 16; 32 ];
  print_endline
    "The schedule saturates near the Fig-13 limit: beyond that, extra cores only\n\
     idle against the critical path.";

  (* event files are a first-class artifact: record one and re-analyze it *)
  let _, cp_live = List.assoc "libquantum" results in
  let path = Filename.temp_file "libquantum_events" ".tf" in
  let w = Tracefile.Writer.create path in
  ignore (run_events "libquantum" ~event_sink:(Tracefile.Writer.sink w));
  Tracefile.Writer.close w;
  let r = Tracefile.Reader.open_file path in
  let cp_loaded = Analysis.Critpath.analyze_stream (Tracefile.Reader.iter r) in
  Tracefile.Reader.close r;
  Printf.printf
    "\nEvent file round-trip (%s): %d records; parallelism %.2fx live vs %.2fx reloaded.\n" path
    (Tracefile.Writer.entries w)
    (Analysis.Critpath.parallelism cp_live)
    (Analysis.Critpath.parallelism cp_loaded);
  Sys.remove path
