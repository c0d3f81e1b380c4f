(* HW/SW partitioning case study (paper §IV-A) across several PARSEC
   workloads: trim each calltree with the max-coverage/min-communication
   heuristic, show the coverage split (Fig 7) and the best / worst
   accelerator candidates (Tables II and III).

     dune exec examples/partitioning_study.exe *)

let benchmarks = [ "blackscholes"; "bodytrack"; "canneal"; "dedup"; "ferret"; "swaptions" ]

(* The control data flow graph of one run with Sigil and Callgrind
   attached together: Sigil's profile supplies the dependency edges,
   Callgrind the cycle estimates for t_sw. *)
let cdfg name =
  let workload =
    match Workloads.Suite.find name with
    | Ok w -> w
    | Error e -> failwith e
  in
  let r = Driver.run_workload ~with_callgrind:true workload Workloads.Scale.Simsmall in
  let cg = Driver.callgrind r in
  let self_cycles ctx = Callgrind.Estimate.cycles (Callgrind.Tool.cost cg ctx) in
  Analysis.Cdfg.of_snapshot ~self_cycles (Sigil.Profile_io.snapshot_of_tool (Driver.sigil r))

let study name = (name, Analysis.Partition.trim (cdfg name))

let () =
  let results = List.map study benchmarks in

  print_string (Analysis.Table.section "Coverage of trimmed-calltree leaves (Fig 7)");
  print_string
    (Analysis.Table.bar_chart
       ~fmt:(fun v -> Printf.sprintf "%.0f%%" (100.0 *. v))
       (List.map
          (fun (name, (t : Analysis.Partition.trimmed)) -> (name, t.Analysis.Partition.coverage))
          results));
  print_newline ();
  print_endline
    "Candidate functions cover most of blackscholes/bodytrack/dedup but little of\n\
     canneal/ferret/swaptions: their hot code hides in driver loops with no\n\
     accelerator-sized boundary — exactly the paper's three exceptions.";

  List.iter
    (fun (name, trimmed) ->
      let ranked = Analysis.Partition.rank trimmed in
      let render cands =
        Analysis.Table.render
          ~headers:[ "candidate"; "S(breakeven)"; "coverage" ]
          (List.map
             (fun (c : Analysis.Partition.candidate) ->
               [
                 c.Analysis.Partition.name;
                 Printf.sprintf "%.3f" c.Analysis.Partition.breakeven;
                 Printf.sprintf "%5.1f%%" (100.0 *. c.Analysis.Partition.coverage);
               ])
             cands)
      in
      print_string (Analysis.Table.section (name ^ ": best five candidates (Table II)"));
      print_string (render (Analysis.Partition.top 5 ranked));
      print_string (Analysis.Table.section (name ^ ": worst five candidates (Table III)"));
      print_string (render (Analysis.Partition.bottom 5 ranked)))
    results;

  (* sensitivity: a narrower bus punishes communication-heavy candidates *)
  let name, trimmed8 = List.hd results in
  let trimmed1 = Analysis.Partition.trim ~bus_bytes_per_cycle:1.0 (cdfg name) in
  Printf.printf
    "\nBus sensitivity (%s): coverage %.1f%% at 8 B/cycle vs %.1f%% at 1 B/cycle.\n" name
    (100.0 *. trimmed8.Analysis.Partition.coverage)
    (100.0 *. trimmed1.Analysis.Partition.coverage)
