(* Critical-path case study (paper §IV-C): dependency chains from the
   event file, longest path and function-level parallelism limit. Works
   from a live run or from a saved binary event trace, through the same
   streaming pass; traces embed the producing run's symbol/context
   tables, so loaded traces print real function names, and both name
   contexts through one [Dbi.Names] table. *)

open Cmdliner

let report title cp names cores =
  Format.printf "== critical path: %s ==@." title;
  Format.printf "serial length (ops):        %d@." (Analysis.Critpath.serial_length cp);
  Format.printf "critical path length (ops): %d@." (Analysis.Critpath.critical_path_length cp);
  Format.printf "max function-level parallelism: %.2fx@.@." (Analysis.Critpath.parallelism cp);
  let path = List.map (Dbi.Names.name names) (Analysis.Critpath.critical_path_contexts cp) in
  Format.printf "critical path (leaf -> main):@.  %s@." (String.concat " -> " path);
  List.iter
    (fun n ->
      let s = Analysis.Critpath.schedule cp ~cores:n in
      Format.printf "@.%d scheduling slots: speedup %.2fx, utilization %.1f%%@." n
        s.Analysis.Critpath.speedup
        (100.0 *. s.Analysis.Critpath.utilization))
    cores

let print_summary title (s : Analysis.Critpath.summary) =
  Format.printf "== critical path (streaming summary): %s ==@." title;
  Format.printf "serial length (ops):        %d@." s.Analysis.Critpath.s_serial;
  Format.printf "critical path length (ops): %d@." s.Analysis.Critpath.s_critical;
  Format.printf "fragments:                  %d@." s.Analysis.Critpath.s_fragments;
  Format.printf "max function-level parallelism: %.2fx@."
    (Analysis.Critpath.summary_parallelism s)

let run name scale load_path cores summary =
  Cli_common.guard @@ fun () ->
  (* the summary pass keeps no DAG to schedule *)
  if summary && cores <> [] then failwith "--cores needs the full report, not --summary";
  match (name, load_path) with
  | Some _, Some _ -> failwith "give a WORKLOAD or --load FILE, not both"
  | None, None -> failwith "give a WORKLOAD or --load FILE"
  | None, Some path ->
    let r = Tracefile.Reader.open_file path in
    Fun.protect
      ~finally:(fun () -> Tracefile.Reader.close r)
      (fun () ->
        let stream = Tracefile.Reader.iter r in
        if summary then print_summary path (Analysis.Critpath.summarize_stream stream)
        else
          report path (Analysis.Critpath.analyze_stream stream) (Tracefile.Reader.names r) cores)
  | Some name, None ->
    (* the workload runs inside the stream, so a live run goes through the
       same pass as a loaded trace and no entry outlives its fragment *)
    let workload = Cli_common.resolve name in
    let title = Printf.sprintf "%s (%s)" name (Workloads.Scale.name scale) in
    let run = ref None in
    let stream emit =
      run :=
        Some
          (Driver.run_workload ~options:Sigil.Options.(with_events default) ~event_sink:emit
             workload scale)
    in
    if summary then print_summary title (Analysis.Critpath.summarize_stream stream)
    else
      let cp = Analysis.Critpath.analyze_stream stream in
      let m = (Option.get !run).Driver.machine in
      report title cp
        (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m))
        cores

let cmd =
  let workload =
    let doc = "Workload to run and analyze (or $(b,--load) a trace). " in
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:(doc ^ Cli_common.known_workloads))
  in
  let load =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:
            "Post-process a saved binary event trace (sigil_run --events) instead of running \
             a WORKLOAD. A text dump from sigil_trace convert is not an event trace.")
  in
  let cores =
    Arg.(
      value
      & opt_all Cli_common.pos_int []
      & info [ "cores" ] ~docv:"N"
          ~doc:
            "Also list-schedule the dependency chains onto $(docv) cores (repeatable; not \
             with $(b,--summary)).")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:
            "Stream the live run or the loaded trace through the summary pass, which keeps \
             no dependency DAG, only the open calls and each call's latest fragment: serial \
             length, critical path and parallelism only (no path listing or scheduling).")
  in
  Cmd.v
    (Cmd.info "sigil_critpath" ~doc:"Critical-path analysis over Sigil event files")
    Term.(const run $ workload $ Cli_common.scale_arg $ load $ cores $ summary)

let () = exit (Cmd.eval cmd)
