(* Record raw guest event streams and re-analyze them offline — profiles
   are platform-independent and only need collecting once — and dump,
   inspect or repair binary event traces. *)

open Cmdliner

let record name scale path =
  Cli_common.guard @@ fun () ->
  let workload = Cli_common.resolve name in
  let m = Dbi.Trace.record path (fun m -> workload.Workloads.Workload.run m scale) in
  let c = Dbi.Machine.counters m in
  Format.printf "recorded %s (%s): %d instructions, %d calls -> %s@." name
    (Workloads.Scale.name scale) (Dbi.Machine.now m) c.Dbi.Machine.calls path

let replay path limit =
  Cli_common.guard @@ fun () ->
  let tool = ref None in
  let m =
    Dbi.Trace.replay
      ~tools:
        [
          (fun machine ->
            let t = Sigil.Tool.create machine in
            tool := Some t;
            Sigil.Tool.tool t);
        ]
      path
  in
  Format.printf "replayed %s: %d instructions@.@." path (Dbi.Machine.now m);
  Sigil.Report.pp ~limit Format.std_formatter (Option.get !tool)

let convert src dst =
  Cli_common.guard @@ fun () ->
  let n = Tracefile.Convert.binary_to_text src dst in
  Format.printf "converted %s (binary) -> %s (text): %d records@." src dst n

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> in_channel_length ic)

let repair src dst chunk_bytes =
  Cli_common.guard @@ fun () ->
  let report = Tracefile.Convert.repair ?chunk_bytes src dst in
  Format.printf "repaired %s -> %s: %a@." src dst Tracefile.Reader.pp_salvage_report report

let inspect path check =
  Cli_common.guard @@ fun () ->
  let r = Tracefile.Reader.open_file path in
  Fun.protect
    ~finally:(fun () -> Tracefile.Reader.close r)
    (fun () ->
      Format.printf "%s: binary event trace (version %d)@." path (Tracefile.Reader.version r);
      Format.printf "  options:     %s@." (Tracefile.Reader.options_tag r);
      Format.printf "  records:     %d@." (Tracefile.Reader.entry_count r);
      Format.printf "  chunks:      %d (target %d B)@." (Tracefile.Reader.chunk_count r)
        (Tracefile.Reader.chunk_bytes r);
      Format.printf "  symbols:     %d@." (Tracefile.Reader.symbol_count r);
      Format.printf "  contexts:    %d@." (Tracefile.Reader.context_count r);
      Format.printf "  file size:   %d B@." (file_size path);
      if check then begin
        Tracefile.Reader.validate r;
        Format.printf "  integrity:   all chunk CRCs and counts verified@."
      end)

let convert_cmd =
  let src =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SRC" ~doc:"Binary event trace to dump.")
  in
  let dst =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DST" ~doc:"Text output file.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Dump a binary event trace as text, one C/O/X/R record per line, for reading and \
          diffing (output only: no tool reads the text back)")
    Term.(const convert $ src $ dst)

let repair_cmd =
  let src =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SRC"
          ~doc:"Damaged binary trace (e.g. a .tmp left behind by a killed run).")
  in
  let dst =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DST" ~doc:"Clean output trace.")
  in
  let chunk_bytes =
    Arg.(
      value
      & opt (some Cli_common.pos_int) None
      & info [ "chunk-bytes" ] ~docv:"N"
          ~doc:"Target chunk payload size for the rewritten trace (default: the source's).")
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Salvage a damaged or crash-torn binary trace: recover the longest intact prefix of \
          chunks and rewrite it as a clean, fully-indexed trace (SRC is untouched)")
    Term.(const repair $ src $ dst $ chunk_bytes)

let inspect_cmd =
  let path =
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Event trace to inspect.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Also decode every chunk, verifying CRCs and entry counts.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print an event trace's header, tables and framing metadata")
    Term.(const inspect $ path $ check)

let record_cmd =
  let path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Trace output file.")
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Run a workload and record its raw event stream")
    Term.(const record $ Cli_common.workload_arg $ Cli_common.scale_arg $ path)

let replay_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file to replay.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Drive Sigil from a recorded trace (no re-run needed)")
    Term.(const replay $ path $ Cli_common.limit_arg)

let cmd =
  Cmd.group
    (Cmd.info "sigil_trace"
       ~doc:"Record and replay guest event streams; dump, inspect and repair event traces")
    [ record_cmd; replay_cmd; convert_cmd; inspect_cmd; repair_cmd ]

let () = exit (Cmd.eval cmd)
