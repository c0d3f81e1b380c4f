(* Critical-path case study (paper §IV-C): dependency chains from the
   event file that sigil_run --events saved, longest path and
   function-level parallelism limit, in one streaming pass over the
   trace. Traces embed the producing run's symbol/context tables, so
   reports print real function names. *)

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

let run path cores summary =
  Cli_common.guard @@ fun () ->
  (* the summary pass keeps no DAG to schedule *)
  if summary && cores <> [] then failwith "--cores needs the full report, not --summary";
  let r = Tracefile.Reader.open_file path in
  Fun.protect
    ~finally:(fun () -> Tracefile.Reader.close r)
    (fun () ->
      let stream = Tracefile.Reader.iter r in
      if summary then print_summary path (Analysis.Critpath.summarize_stream stream)
      else report path (Analysis.Critpath.analyze_stream stream) (Tracefile.Reader.names r) cores)

let cmd =
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
            "Stream the trace through the summary pass, which keeps no dependency DAG, only \
             the open calls and each call's latest fragment: serial length, critical path and \
             parallelism only (no path listing or scheduling).")
  in
  Cmd.v
    (Cmd.info "sigil_critpath" ~doc:"Critical-path analysis over Sigil event files")
    Term.(
      const run
      $ Cli_common.file_arg
          "Binary event trace saved by sigil_run --events. A text dump from sigil_trace \
           convert is not an event trace."
      $ cores $ summary)

let () = exit (Cmd.eval cmd)
