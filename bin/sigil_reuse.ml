(* Data-reuse case study (paper §IV-B): per-byte reuse breakdown, top
   re-using functions with lifetimes, per-function histograms, and the
   line-granularity mode. *)

open Cmdliner

let run name scale limit fn_hist line_size =
  let workload = Cli_common.resolve name in
  match line_size with
  | Some _ when fn_hist <> [] ->
    (* lifetime histograms are kept per byte: line mode has none *)
    Format.eprintf "error: --histogram needs byte mode, not --line-size@.";
    exit 2
  | Some size ->
    let options = Sigil.Options.with_line_size Sigil.Options.default size in
    let r = Driver.run_workload ~options workload scale in
    let line = Option.get (Sigil.Tool.line_shadow (Driver.sigil r)) in
    Format.printf "== line-granularity reuse: %s (%s), %dB lines ==@." name
      (Workloads.Scale.name scale) size;
    Format.printf "lines touched: %d@.@." (Sigil.Line_shadow.lines line);
    let b = Sigil.Line_shadow.bins line in
    print_string
      (Analysis.Table.render
         ~headers:[ "re-use count"; "lines" ]
         [
           [ "< 10"; string_of_int b.Sigil.Line_shadow.under_10 ];
           [ "< 100"; string_of_int b.Sigil.Line_shadow.under_100 ];
           [ "< 1000"; string_of_int b.Sigil.Line_shadow.under_1000 ];
           [ "< 10000"; string_of_int b.Sigil.Line_shadow.under_10000 ];
           [ "> 10000"; string_of_int b.Sigil.Line_shadow.over_10000 ];
         ])
  | None ->
    let options = Sigil.Options.(with_reuse default) in
    let r = Driver.run_workload ~options workload scale in
    let tool = Driver.sigil r in
    let snap = Sigil.Profile_io.snapshot_of_tool tool in
    List.iter
      (fun fn ->
        if Analysis.Reuse_report.find_contexts snap fn = [] then begin
          Format.eprintf "error: no function %S ran in %s@." fn name;
          exit 2
        end)
      fn_hist;
    let bd = Analysis.Reuse_report.byte_breakdown tool in
    Format.printf "== data reuse: %s (%s) ==@." name (Workloads.Scale.name scale);
    Format.printf "data elements: %d@." bd.Analysis.Reuse_report.elements;
    Format.printf "re-use counts: zero %.1f%%  1-9 %.1f%%  >9 %.1f%%@.@."
      (100.0 *. bd.Analysis.Reuse_report.zero)
      (100.0 *. bd.Analysis.Reuse_report.one_to_nine)
      (100.0 *. bd.Analysis.Reuse_report.over_nine);
    Format.printf "top functions by contribution to data re-use:@.";
    let rows =
      List.map
        (fun (row : Analysis.Reuse_report.fn_row) ->
          [
            row.Analysis.Reuse_report.label;
            Printf.sprintf "%.0f" row.Analysis.Reuse_report.avg_lifetime;
            string_of_int row.Analysis.Reuse_report.reuse_reads;
            Printf.sprintf "%.1f%%" (100.0 *. row.Analysis.Reuse_report.unique_share);
          ])
        (Analysis.Reuse_report.top_reusers ~n:limit tool)
    in
    print_string
      (Analysis.Table.render
         ~headers:[ "function"; "avg re-use lifetime"; "re-use reads"; "unique-byte share" ]
         rows);
    List.iter
      (fun fn ->
        Format.printf "@.re-use lifetime histogram for %s (bin %d):@." fn
          (Sigil.Reuse.lifetime_bin_width (Sigil.Tool.reuse tool));
        let hist = Analysis.Reuse_report.lifetime_histogram tool snap fn in
        if hist = [] then Format.printf "  (no re-used bytes)@."
        else
          print_string
            (Analysis.Table.bar_chart ~fmt:(Printf.sprintf "%.0f")
               (List.map (fun (bin, count) -> (string_of_int bin, float_of_int count)) hist)))
      fn_hist

let cmd =
  let fn_hist =
    Arg.(
      value
      & opt_all string []
      & info [ "histogram" ] ~docv:"FUNCTION"
          ~doc:"Print the re-use lifetime histogram of $(docv) (repeatable).")
  in
  let line_size =
    Arg.(
      value
      & opt (some Cli_common.power_of_two) None
      & info [ "line-size" ] ~docv:"BYTES"
          ~doc:"Shadow cache lines of $(docv) bytes instead of single bytes.")
  in
  Cmd.v
    (Cmd.info "sigil_reuse" ~doc:"Data-reuse characterization from Sigil profiles")
    Term.(
      const run $ Cli_common.workload_arg $ Cli_common.scale_arg $ Cli_common.limit_arg $ fn_hist
      $ line_size)

let () = exit (Cmd.eval cmd)
