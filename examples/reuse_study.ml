(* Data-reuse case study (paper §IV-B): benchmark-wide re-use breakdowns
   (Fig 8), then drill into vips — the functions contributing most re-use
   and their lifetime histograms (Figs 9-11) — and finish with the
   line-granularity mode (Fig 12).

     dune exec examples/reuse_study.exe *)

let reuse_options = Sigil.Options.(with_reuse default)

let run name ?(options = reuse_options) () =
  match Workloads.Suite.find name with
  | Ok w -> Driver.run_workload ~options w Workloads.Scale.Simsmall
  | Error e -> failwith e

let () =
  (* Fig 8: how often is a data element re-used? *)
  print_string (Analysis.Table.section "Re-use counts of data elements (Fig 8)");
  List.iter
    (fun name ->
      let r = run name () in
      let bd = Analysis.Reuse_report.byte_breakdown (Driver.sigil r) in
      Printf.printf "%-14s %s" name
        (Analysis.Table.stacked_bar
           [
             ("zero", bd.Analysis.Reuse_report.zero);
             ("1-9", bd.Analysis.Reuse_report.one_to_nine);
             (">9", bd.Analysis.Reuse_report.over_nine);
           ]))
    [ "blackscholes"; "streamcluster"; "canneal"; "facesim"; "raytrace"; "vips" ];
  print_endline
    "\nMost intermediate data is consumed once and never read again — it does not\n\
     need to be cached at all. blackscholes and streamcluster barely re-use\n\
     anything; the physics and graphics codes do.";

  (* Figs 9-11: drill into vips *)
  let r = run "vips" () in
  let tool = Driver.sigil r in
  let snap = Sigil.Profile_io.snapshot_of_tool tool in
  print_string
    (Analysis.Table.section "vips: top functions by data re-use, with avg lifetimes (Fig 9)");
  let rows = Analysis.Reuse_report.top_reusers ~n:8 tool in
  print_string
    (Analysis.Table.bar_chart
       ~fmt:(fun v -> Printf.sprintf "%.0f instrs" v)
       (List.map
          (fun (row : Analysis.Reuse_report.fn_row) ->
            (row.Analysis.Reuse_report.label, row.Analysis.Reuse_report.avg_lifetime))
          rows));
  print_endline
    "\nconv_gen keeps bytes alive across seven row sweeps (bad temporal locality,\n\
     cache-size sensitive); imb_XYZ2Lab re-reads each pixel immediately (a\n\
     scratchpad of a few bytes would do).";

  List.iter
    (fun fn ->
      print_string
        (Analysis.Table.section
           (Printf.sprintf "vips: re-use lifetime histogram of %S (Figs 10/11)" fn));
      let hist = Analysis.Reuse_report.lifetime_histogram tool snap fn in
      (* log-ish rendering: show counts directly, the shape is the point *)
      print_string
        (Analysis.Table.bar_chart
           ~fmt:(Printf.sprintf "%.0f")
           (List.map (fun (bin, count) -> (string_of_int bin, float_of_int count)) hist)))
    [ "conv_gen"; "imb_XYZ2Lab" ];

  (* Fig 12: line granularity *)
  print_string (Analysis.Table.section "Line-granularity re-use, 64B lines (Fig 12)");
  List.iter
    (fun name ->
      let r =
        run name ~options:(Sigil.Options.with_line_size Sigil.Options.default 64) ()
      in
      let line = Option.get (Sigil.Tool.line_shadow (Driver.sigil r)) in
      let u10, u100, u1k, u10k, o10k = Sigil.Line_shadow.bin_fractions line in
      Printf.printf "%-14s %s" name
        (Analysis.Table.stacked_bar
           [ ("<10", u10); ("<100", u100); ("<1k", u1k); ("<10k", u10k); (">10k", o10k) ]))
    [ "blackscholes"; "dedup"; "raytrace"; "streamcluster"; "x264" ]
