(* HW/SW partitioning case study (paper §IV-A): trim the control data flow
   graph of a saved profile and rank accelerator candidates by breakeven
   speedup. *)

open Cmdliner

let run path limit bus max_coverage callgrind_out =
  Cli_common.guard @@ fun () ->
  let snap, _, title = Cli_common.load_profile path in
  let costs =
    match Sigil.Profile_io.costs snap with
    | Some c -> c
    | None -> failwith (path ^ " has no cost columns (save it with sigil_run --save-profile)")
  in
  (match callgrind_out with
  | Some out ->
    Callgrind.Output.save (Sigil.Profile_io.names snap)
      ~calls:(fun ctx -> (Sigil.Profile_io.stats snap ctx).calls)
      costs out;
    Format.printf "callgrind-format profile written to %s@." out
  | None -> ());
  let cdfg = Analysis.Cdfg.of_snapshot snap in
  let trimmed = Analysis.Partition.trim ~bus_bytes_per_cycle:bus ~max_coverage cdfg in
  let ranked = Analysis.Partition.rank trimmed in
  Format.printf "== partitioning: %s, bus %.1f B/cycle ==@." title bus;
  Format.printf "trimmed-tree leaf coverage: %.1f%% of estimated cycles@.@."
    (100.0 *. trimmed.Analysis.Partition.coverage);
  let rows =
    List.filteri (fun i _ -> i < limit) ranked
    |> List.map (fun (c : Analysis.Partition.candidate) ->
           [
             c.Analysis.Partition.name;
             Printf.sprintf "%.3f" c.Analysis.Partition.breakeven;
             Printf.sprintf "%.1f%%" (100.0 *. c.Analysis.Partition.coverage);
             string_of_int c.Analysis.Partition.incl_cycles;
             string_of_int c.Analysis.Partition.input_unique;
             string_of_int c.Analysis.Partition.output_unique;
           ])
  in
  print_string
    (Analysis.Table.render
       ~headers:[ "candidate"; "S(breakeven)"; "coverage"; "cycles"; "uniq-in"; "uniq-out" ]
       rows)

let cmd =
  let bus =
    Arg.(
      value
      & opt
          (Cli_common.checked float (fun b -> b > 0.0) "a positive number")
          Analysis.Partition.default_bus_bytes_per_cycle
      & info [ "bus" ] ~docv:"BYTES" ~doc:"SoC bus bandwidth in bytes per cycle.")
  in
  let max_coverage =
    Arg.(
      value
      & opt (Cli_common.checked float (fun f -> f >= 0.0 && f <= 1.0) "a fraction in [0, 1]")
          0.5
      & info [ "max-coverage" ] ~docv:"FRAC"
          ~doc:"Largest program share a merged driver box may take.")
  in
  let callgrind_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "callgrind-out" ] ~docv:"FILE"
          ~doc:"Also write the baseline profile in callgrind format (KCachegrind-readable).")
  in
  Cmd.v
    (Cmd.info "sigil_partition" ~doc:"Communication-aware HW/SW partitioning from Sigil profiles")
    Term.(
      const run
      $ Cli_common.file_arg "Profile saved by sigil_run --save-profile, with Callgrind's costs."
      $ Cli_common.limit_arg $ bus $ max_coverage $ callgrind_out)

let () = exit (Cmd.eval cmd)
