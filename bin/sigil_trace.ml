(* Record raw guest event streams and re-analyze them offline — profiles
   are platform-independent and only need collecting once — dump or
   inspect any binary trace file (event trace, recording or profile), and
   repair event traces. *)

open Cmdliner

let record name scale path =
  Cli_common.guard @@ fun () ->
  let workload = Cli_common.resolve name in
  let m = Tracefile.Recording.record path (fun m -> workload.Workloads.Workload.run m scale) in
  let c = Dbi.Machine.counters m in
  Format.printf "recorded %s (%s): %d instructions, %d calls -> %s@." name
    (Workloads.Scale.name scale) (Dbi.Machine.now m) c.Dbi.Machine.calls path

let with_reader path f =
  let r = Tracefile.Reader.open_file path in
  Fun.protect ~finally:(fun () -> Tracefile.Reader.close r) (fun () -> f r)

let replay path limit =
  Cli_common.guard @@ fun () ->
  let tool = ref None in
  let sigil machine =
    let t = Sigil.Tool.create machine in
    tool := Some t;
    Sigil.Tool.tool t
  in
  let m = with_reader path (Tracefile.Recording.replay ~tools:[ sigil ]) in
  Format.printf "replayed %s: %d instructions@.@." path (Dbi.Machine.now m);
  Sigil.Report.pp ~limit Format.std_formatter
    (Sigil.Profile_io.snapshot_of_tool (Option.get !tool))

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
  with_reader path (fun r ->
      Format.printf "%s: binary %s (version %d)@." path
        (Tracefile.Frame.kind_name (Tracefile.Reader.kind r))
        (Tracefile.Reader.version r);
      let options = Tracefile.Reader.options_tag r in
      Format.printf "  options:     %s@." (if options = "" then "-" else options);
      Format.printf "  records:     %d@." (Tracefile.Reader.entry_count r);
      Format.printf "  chunks:      %d (target %d B)@." (Tracefile.Reader.chunk_count r)
        (Tracefile.Reader.chunk_bytes r);
      Format.printf "  symbols:     %d@." (Tracefile.Reader.symbol_count r);
      Format.printf "  contexts:    %d@." (Tracefile.Reader.context_count r);
      Format.printf "  file size:   %d B@." (file_size path);
      if check then begin
        Tracefile.Convert.validate r;
        Format.printf "  integrity:   all chunk CRCs and record counts verified@."
      end)

(* A positional file argument. *)
let file n docv doc = Arg.(required & pos n (some string) None & info [] ~docv ~doc)

let convert_cmd =
  let src = file 0 "SRC" "Binary trace file to dump: event trace, recording or profile." in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Dump a binary trace file as text for reading and diffing: an event trace as C/O/X/R \
          lines, a recording as E/L/R/W/I/F/B lines, a profile as its sigil-profile text \
          (output only: no tool reads the text back)")
    Term.(const convert $ src $ file 1 "DST" "Text output file.")

let repair_cmd =
  let src = file 0 "SRC" "Damaged binary event trace (e.g. a .tmp left behind by a killed run)." in
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
         "Salvage a damaged or crash-torn binary event trace: recover the longest intact prefix \
          of chunks and rewrite it as a clean, fully-indexed trace (SRC is untouched)")
    Term.(const repair $ src $ file 1 "DST" "Clean output trace." $ chunk_bytes)

let inspect_cmd =
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Also decode every record, verifying CRCs and counts.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print a trace file's kind, header, tables and framing metadata")
    Term.(const inspect $ file 0 "FILE" "Trace file to inspect." $ check)

let record_cmd =
  Cmd.v
    (Cmd.info "record" ~doc:"Run a workload and record its raw event stream as a binary recording")
    Term.(
      const record $ Cli_common.workload_arg $ Cli_common.scale_arg
      $ file 1 "FILE" "Recording output file.")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~doc:"Drive Sigil from a recording (no re-run needed)")
    Term.(const replay $ file 0 "FILE" "Recording to replay." $ Cli_common.limit_arg)

let cmd =
  Cmd.group
    (Cmd.info "sigil_trace"
       ~doc:"Record and replay guest event streams; dump and inspect trace files; repair event traces")
    [ record_cmd; replay_cmd; convert_cmd; inspect_cmd; repair_cmd ]

let () = exit (Cmd.eval cmd)
