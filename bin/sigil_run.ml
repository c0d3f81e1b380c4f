(* Run one or more workloads under Sigil and dump the aggregate profiles
   (optionally the event file, a saved profile or a DOT graph), the tool's
   primary interface and the only sigil_* program besides sigil_trace
   record that runs a workload: the case-study tools read the files it
   saves. Multi-workload invocations fan the independent runs out over a
   domain pool (-j/--domains); reports print in argument order and are
   bit-identical to a sequential run. *)

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

(* Fig 12's line-granularity block (§IV-B3), which takes the per-function
   table's place in line mode: it is printed by the run, not saved. *)
let pp_lines name scale size line =
  Format.printf "== line-granularity reuse: %s (%s), %dB lines ==@.lines touched: %d@.@." name
    (Workloads.Scale.name scale) size (Sigil.Line_shadow.lines line);
  let b : Sigil.Line_shadow.bins = Sigil.Line_shadow.bins line in
  let row label n = [ label; string_of_int n ] in
  print_string
    (Analysis.Table.render ~headers:[ "re-use count"; "lines" ]
       [ row "< 10" b.under_10; row "< 100" b.under_100; row "< 1000" b.under_1000;
         row "< 10000" b.under_10000; row "> 10000" b.over_10000 ])

let pp_stats ~det snapshot =
  let s = if det then Telemetry.deterministic snapshot else snapshot in
  Telemetry.pp Format.std_formatter s

let run names scale limit max_chunks stripped domains timeout budget reuse line_size events_path
    chunk_bytes checkpoint_every stats stats_out stats_det progress edges flat tree save_profile
    dot_path =
  Cli_common.guard @@ fun () ->
  let workloads = List.map Cli_run.resolve names in
  if List.length names > 1 then
    List.iter
      (fun (flag, set) -> if set then failwith (flag ^ " requires a single WORKLOAD"))
      [ ("--events", events_path <> None); ("--save-profile", save_profile <> None);
        ("--dot", dot_path <> None) ];
  (* line mode keeps no profile or events, so the readers would get zeros *)
  if line_size <> None then
    List.iter
      (fun (flag, set) -> if set then failwith (flag ^ " needs byte mode, not --line-size"))
      [ ("--events", events_path <> None); ("--save-profile", save_profile <> None) ];
  let want_stats = stats || stats_out <> None in
  (* the flags' values were checked when parsed *)
  let options =
    { Sigil.Options.default with reuse_mode = reuse; collect_events = events_path <> None;
      line_size; max_chunks; instr_budget = budget; timeout_s = timeout;
      collect_stats = want_stats }
  in
  (* events stream straight into the binary chunk writer during the run:
     the tool buffers at most one chunk, never the whole trace *)
  let event_writer =
    Option.map
      (fun path -> Tracefile.Writer.create ?chunk_bytes ?checkpoint_every ~options path)
      events_path
  in
  let event_sink = Option.map Tracefile.Writer.sink event_writer in
  (* a saved profile carries Callgrind's costs, as the paper runs Sigil on
     Callgrind: partitioning needs them *)
  let with_callgrind = save_profile <> None in
  let job w = Driver.job ~options ?event_sink ~with_callgrind ~stripped w scale in
  (* the pool handle survives [with_domains] only for its accounting
     atomics, which [Driver.Stats] folds into the wall-clock aggregate *)
  let results, pool_used =
    Cli_run.with_domains domains (fun pool ->
        Cli_run.with_progress progress (List.length workloads) (fun prog ->
            (Driver.run_many ?pool ?progress:prog (List.map job workloads), pool)))
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
          let tool = Driver.sigil r in
          let snap = Sigil.Profile_io.snapshot_of_tool ?callgrind:r.Driver.callgrind tool in
          (match (line_size, Sigil.Tool.line_shadow tool) with
          | Some size, Some line -> pp_lines name scale size line
          | _ ->
            if flat then Analysis.Flat.pp ~limit Format.std_formatter snap
            else Sigil.Report.pp ~limit Format.std_formatter snap);
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
      Tracefile.Profile_file.save ~options:(Sigil.Tool.options (Driver.sigil r))
        ~run:{ workload = List.hd names; scale = Workloads.Scale.name scale }
        snap path;
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
  if !failures > 0 then exit Cli_run.exit_partial

let cmd =
  let reuse =
    let doc = "Also track re-use counts and lifetimes: a saved profile holds its reuse summary." in
    Arg.(value & flag & info [ "reuse" ] ~doc)
  in
  let line_size =
    let doc = "Shadow $(docv)-byte lines, not bytes, and print their re-use counts instead." in
    let power_of_two n = n > 0 && n land (n - 1) = 0 in
    let size = Cli_common.checked Arg.int power_of_two "a power of two" in
    Arg.(value & opt (some size) None & info [ "line-size" ] ~docv:"BYTES" ~doc)
  in
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
            "Also run Callgrind and write the aggregate profile with its costs to $(docv) as a \
             binary profile, for sigil_partition, sigil_reuse (with $(b,--reuse)) and \
             sigil_diff; sigil_trace convert dumps one as text.")
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
      const run $ Cli_run.workloads_arg $ Cli_run.scale_arg $ Cli_common.limit_arg
      $ Cli_run.max_chunks_arg $ Cli_run.stripped_arg $ Cli_run.domains_arg
      $ Cli_run.timeout_arg $ Cli_run.instr_budget_arg $ reuse $ line_size
      $ events $ chunk_bytes $ checkpoint_every $ Cli_run.stats_arg $ Cli_run.stats_out_arg
      $ Cli_run.stats_det_arg $ Cli_run.progress_arg $ edges $ flat $ tree $ save_profile
      $ dot)

let () = exit (Cmd.eval cmd)
