(* Data-reuse case study (paper §IV-B) of a saved reuse-mode profile:
   per-byte reuse breakdown, top re-using functions with lifetimes and
   per-function histograms. The line-granularity mode is sigil_run's
   --line-size. *)

open Cmdliner

let run path limit fn_hist =
  Cli_common.guard @@ fun () ->
  let snap, name, title = Cli_common.load_profile path in
  if Sigil.Profile_io.reuse snap = None then
    failwith (path ^ " has no reuse summary (save it with sigil_run --reuse --save-profile)");
  List.iter
    (fun fn ->
      if Analysis.Reuse_report.find_contexts snap fn = [] then
        failwith (Printf.sprintf "no function %S ran in %s" fn name))
    fn_hist;
  let bd = Analysis.Reuse_report.breakdown snap in
  Format.printf "== data reuse: %s ==@." title;
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
      (Analysis.Reuse_report.top ~n:limit snap)
  in
  print_string
    (Analysis.Table.render
       ~headers:[ "function"; "avg re-use lifetime"; "re-use reads"; "unique-byte share" ]
       rows);
  List.iter
    (fun fn ->
      Format.printf "@.re-use lifetime histogram for %s (bin %d):@." fn
        Sigil.Reuse.lifetime_bin_width;
      let hist = Analysis.Reuse_report.lifetime_histogram snap fn in
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
  Cmd.v
    (Cmd.info "sigil_reuse" ~doc:"Data-reuse characterization from Sigil profiles")
    Term.(
      const run
      $ Cli_common.file_arg "Profile saved by sigil_run --reuse --save-profile."
      $ Cli_common.limit_arg $ fn_hist)

let () = exit (Cmd.eval cmd)
