(* Run one or more workloads under Sigil and dump the aggregate profiles
   (optionally the event file, a saved profile or a DOT graph), the tool's
   primary interface. Multi-workload invocations fan the independent runs
   out over a domain pool (-j/--domains); reports print in argument order
   and are bit-identical to a sequential run. *)

open Cmdliner

let report name scale r =
  let tool = Driver.sigil r in
  let c = Dbi.Machine.counters r.Driver.machine in
  Format.printf "== sigil: %s (%s) ==@." name (Workloads.Scale.name scale);
  Format.printf "guest instructions: %d   calls: %d   syscalls: %d@."
    (Dbi.Machine.now r.Driver.machine) c.Dbi.Machine.calls c.Dbi.Machine.syscalls;
  Format.printf "shadow footprint: %.1f MB (peak %.1f MB), evictions: %d@.@."
    (float_of_int (Sigil.Tool.shadow_footprint_bytes tool) /. 1e6)
    (float_of_int (Sigil.Tool.shadow_footprint_peak_bytes tool) /. 1e6)
    (Sigil.Tool.shadow_evictions tool)

let pp_stats ~det snapshot =
  let s = if det then Telemetry.deterministic snapshot else snapshot in
  Telemetry.pp Format.std_formatter s

let run names scale limit max_chunks stripped domains timeout budget events_path chunk_bytes
    checkpoint_every stats stats_out stats_det progress edges flat tree save_profile dot_path =
  Cli_common.guard @@ fun () ->
  let workloads = List.map Cli_common.resolve names in
  (if List.length names > 1 then
     let single_only =
       [
         ("--events", events_path <> None);
         ("--save-profile", save_profile <> None);
         ("--dot", dot_path <> None);
       ]
     in
     List.iter
       (fun (flag, set) ->
         if set then begin
           Format.eprintf "error: %s requires a single WORKLOAD@." flag;
           exit 2
         end)
       single_only);
  let options = Cli_common.with_max_chunks Sigil.Options.default max_chunks in
  let options = if events_path <> None then Sigil.Options.with_events options else options in
  let options = Cli_common.with_guards options ~timeout ~budget in
  let want_stats = stats || stats_out <> None in
  let options = if want_stats then Sigil.Options.with_stats options else options in
  (* events stream straight into the binary chunk writer during the run:
     the tool buffers at most one chunk, never the whole trace *)
  let event_writer =
    Option.map
      (fun path -> Tracefile.Writer.create ?chunk_bytes ?checkpoint_every ~options path)
      events_path
  in
  let event_sink = Option.map Tracefile.Writer.sink event_writer in
  (* the pool handle survives [with_domains] only for its accounting
     atomics, which [Driver.Stats] folds into the wall-clock aggregate *)
  let results, pool_used =
    Cli_common.with_domains domains (fun pool ->
        Cli_common.with_progress progress (List.length workloads) (fun prog ->
            ( Driver.run_many ?pool ?progress:prog
                (List.map (fun w -> Driver.job ~options ?event_sink ~stripped w scale) workloads),
              pool )))
  in
  let failures = ref 0 in
  (* one snapshot per run feeds every report and file below *)
  let snapshots =
    List.map2
      (fun name result ->
        match result with
        | Error e ->
          incr failures;
          Format.eprintf "sigil_run: FAILED %s@." (Driver.Run_error.to_string e);
          None
        | Ok r ->
          report name scale r;
          let snap = Sigil.Profile_io.snapshot_of_tool (Driver.sigil r) in
          if flat then Analysis.Flat.pp ~limit Format.std_formatter snap
          else Sigil.Report.pp ~limit Format.std_formatter snap;
          if tree then begin
            Format.printf "@.calltree (inclusive ops, unique bytes in/out):@.";
            Analysis.Flat.calltree Format.std_formatter snap
          end;
          if edges then begin
            Format.printf "@.communication edges (by unique bytes):@.";
            Sigil.Report.pp_edges ~limit Format.std_formatter snap
          end;
          Some snap)
      names results
  in
  (match (results, snapshots) with
  | [ Ok r ], [ Some snap ] -> (
    (match save_profile with
    | Some path ->
      Tracefile.Profile_file.save ~options:(Sigil.Tool.options (Driver.sigil r)) snap path;
      Format.printf "@.profile written to %s@." path
    | None -> ());
    (match dot_path with
    | Some path ->
      Analysis.Dot.save_cdfg snap path;
      Format.printf "@.control data flow graph (DOT) written to %s@." path
    | None -> ());
    match (events_path, event_writer) with
    | Some path, Some w ->
      let m = r.Driver.machine in
      Tracefile.Writer.close_names
        (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m)) w;
      Format.printf
        "@.binary event trace (%d records, %d chunks, peak buffer %d B) written to %s@."
        (Tracefile.Writer.entries w) (Tracefile.Writer.chunks w)
        (Tracefile.Writer.peak_buffer_bytes w)
        path
    | (Some _ | None), (Some _ | None) -> ())
  | _ ->
    (* the run feeding the trace writer failed (or there were several
       runs): never publish a partial trace under the requested name *)
    Option.iter Tracefile.Writer.discard event_writer);
  if want_stats then begin
    (* a single-run --events invocation also reports the trace writer's
       samples (the writer is closed by now; its counters remain valid) *)
    let named_results =
      match (results, event_writer) with
      | [ Ok r ], Some w ->
        let with_trace =
          Option.map
            (fun s -> Telemetry.merge s (Telemetry.of_samples (Tracefile.Writer.telemetry w)))
            r.Driver.stats
        in
        [ (List.hd names, Ok { r with Driver.stats = with_trace }) ]
      | _ -> List.combine names results
    in
    if stats then begin
      List.iter
        (fun (name, result) ->
          match result with
          | Ok r ->
            Format.printf "@.-- stats: %s --@." name;
            pp_stats ~det:stats_det (Driver.Stats.of_run r)
          | Error _ -> ())
        named_results;
      if List.length named_results > 1 then begin
        Format.printf "@.-- stats: aggregate --@.";
        pp_stats ~det:stats_det
          (Driver.Stats.aggregate ?pool:pool_used (List.map snd named_results))
      end
    end;
    match stats_out with
    | Some path ->
      Driver.Stats.write_json ~wall:(not stats_det) ?pool:pool_used ~scale named_results path;
      Format.printf "@.stats written to %s@." path
    | None -> ()
  end;
  if !failures > 0 then exit Cli_common.exit_partial

let cmd =
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Also record the sequential event trace to $(docv) in the framed binary format, \
             streamed chunk by chunk during the run (bounded memory). sigil_trace convert \
             dumps it as text. A failed run publishes no trace.")
  in
  let chunk_bytes =
    Arg.(
      value
      & opt (some Cli_common.pos_int) None
      & info [ "chunk-bytes" ] ~docv:"N"
          ~doc:
            "Target payload bytes per --events chunk (default 65536). Smaller chunks cost more \
             framing overhead but tighten crash-recovery granularity.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some Cli_common.pos_int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Write a durable index checkpoint (and flush) into the --events trace every $(docv) \
             chunks (default 16) — the bound on data a hard kill can lose.")
  in
  let edges =
    Arg.(value & flag & info [ "edges" ] ~doc:"Print producer->consumer communication edges.")
  in
  let flat =
    Arg.(
      value & flag
      & info [ "flat" ] ~doc:"Merge calling contexts by function name (gprof-style rollup).")
  in
  let tree =
    Arg.(value & flag & info [ "tree" ] ~doc:"Print the calltree with inclusive costs.")
  in
  let save_profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-profile" ] ~docv:"FILE"
          ~doc:
            "Write the aggregate profile to $(docv) as a binary profile (sigil_diff compares \
             profiles; sigil_trace convert dumps one as text).")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the control data flow graph as Graphviz DOT.")
  in
  Cmd.v
    (Cmd.info "sigil_run" ~doc:"Profile workloads' function-level communication with Sigil")
    Term.(
      const run $ Cli_common.workloads_arg $ Cli_common.scale_arg $ Cli_common.limit_arg
      $ Cli_common.max_chunks_arg $ Cli_common.stripped_arg $ Cli_common.domains_arg
      $ Cli_common.timeout_arg $ Cli_common.instr_budget_arg
      $ events $ chunk_bytes $ checkpoint_every $ Cli_common.stats_arg $ Cli_common.stats_out_arg
      $ Cli_common.stats_det_arg $ Cli_common.progress_arg $ edges $ flat $ tree $ save_profile
      $ dot)

let () = exit (Cmd.eval cmd)
