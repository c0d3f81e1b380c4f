(* Partitioning over toy programs with controlled compute/communication
   ratios. *)

let run_guest body =
  let sigil = ref None and cg = ref None in
  let _ =
    Dbi.Runner.run ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t = Sigil.Tool.create m in
            sigil := Some t;
            Sigil.Tool.tool t);
          (fun m ->
            let t = Callgrind.Tool.create m in
            cg := Some t;
            Callgrind.Tool.tool t);
        ]
      body
  in
  Analysis.Cdfg.build ~callgrind:(Option.get !cg) (Option.get !sigil)

(* dense: huge compute on tiny data; sparse: one op per byte over a big
   fresh buffer (cannot break even at the default bus width) *)
let contrast m =
  Dbi.Guest.call m "main" (fun () ->
      let data = Dbi.Guest.alloc m 8192 in
      Dbi.Guest.write m data 8;
      Dbi.Guest.call m "feeder" (fun () -> Dbi.Guest.write_range m data 8192);
      Dbi.Guest.call m "dense" (fun () ->
          Dbi.Guest.read m data 8;
          Dbi.Guest.flop m 100000;
          Dbi.Guest.write m data 8);
      Dbi.Guest.call m "sparse" (fun () ->
          Dbi.Guest.read_range m data 4096;
          Dbi.Guest.write_range m (data + 4096) 4096))

let test_breakeven_ordering () =
  let cdfg = run_guest contrast in
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun ctx ->
      let n = Analysis.Cdfg.node cdfg ctx in
      Hashtbl.replace by_name n.Analysis.Cdfg.name (Analysis.Partition.breakeven cdfg ctx))
    (Analysis.Cdfg.contexts cdfg);
  let s name = Hashtbl.find by_name name in
  Alcotest.(check bool) "dense close to 1" true (s "dense" < 1.01);
  Alcotest.(check bool) "sparse much worse" true (s "sparse" > s "dense" +. 0.05)

let test_breakeven_formula () =
  let cdfg = run_guest contrast in
  let dense =
    List.find
      (fun ctx -> (Analysis.Cdfg.node cdfg ctx).Analysis.Cdfg.name = "dense")
      (Analysis.Cdfg.contexts cdfg)
  in
  let n = Analysis.Cdfg.node cdfg dense in
  let t_sw = float_of_int n.Analysis.Cdfg.incl_cycles in
  let t_comm =
    float_of_int (n.Analysis.Cdfg.incl_input_unique + n.Analysis.Cdfg.incl_output_unique) /. 8.0
  in
  Alcotest.(check (float 1e-9)) "eq. 1"
    (t_sw /. (t_sw -. t_comm))
    (Analysis.Partition.breakeven cdfg dense)

let test_bus_width_matters () =
  let cdfg = run_guest contrast in
  let sparse =
    List.find
      (fun ctx -> (Analysis.Cdfg.node cdfg ctx).Analysis.Cdfg.name = "sparse")
      (Analysis.Cdfg.contexts cdfg)
  in
  let slow = Analysis.Partition.breakeven ~bus_bytes_per_cycle:1.0 cdfg sparse in
  let fast = Analysis.Partition.breakeven ~bus_bytes_per_cycle:64.0 cdfg sparse in
  Alcotest.(check bool) "wider bus helps" true (fast < slow)

let test_trim_selects_and_excludes () =
  let cdfg = run_guest contrast in
  let trimmed = Analysis.Partition.trim cdfg in
  let names =
    List.map (fun (c : Analysis.Partition.candidate) -> c.Analysis.Partition.name)
      trimmed.Analysis.Partition.selected
  in
  Alcotest.(check bool) "dense selected" true (List.mem "dense" names);
  Alcotest.(check bool) "main never selected" false (List.mem "main" names);
  Alcotest.(check bool) "coverage in (0,1]" true
    (trimmed.Analysis.Partition.coverage > 0.0 && trimmed.Analysis.Partition.coverage <= 1.0)

let test_driver_box_blocked () =
  (* a driver whose subtree is the whole program must not be merged *)
  let body m =
    Dbi.Guest.call m "main" (fun () ->
        Dbi.Guest.call m "driver" (fun () ->
            for _ = 1 to 4 do
              Dbi.Guest.call m "work" (fun () ->
                  Dbi.Guest.flop m 10000;
                  Dbi.Guest.read m 0x200000 8)
            done))
  in
  let cdfg = run_guest body in
  let trimmed = Analysis.Partition.trim cdfg in
  let names =
    List.map (fun (c : Analysis.Partition.candidate) -> c.Analysis.Partition.name)
      trimmed.Analysis.Partition.selected
  in
  Alcotest.(check (list string)) "work selected, driver not" [ "work" ] names

let test_syscalls_never_candidates () =
  let body m =
    Dbi.Guest.call m "main" (fun () ->
        Dbi.Guest.syscall m "read" ~reads:[] ~writes:[ (0x200000, 4096) ];
        Dbi.Guest.call m "work" (fun () ->
            Dbi.Guest.read m 0x200000 8;
            Dbi.Guest.flop m 5000))
  in
  let cdfg = run_guest body in
  let trimmed = Analysis.Partition.trim cdfg in
  List.iter
    (fun (c : Analysis.Partition.candidate) ->
      Alcotest.(check bool) "no sys:" false (Dbi.Machine.is_syscall_fn c.Analysis.Partition.name))
    trimmed.Analysis.Partition.selected

let test_rank_dedups_by_name () =
  (* the same function selected in two contexts appears once, best first *)
  let body m =
    Dbi.Guest.call m "main" (fun () ->
        Dbi.Guest.call m "p1" (fun () ->
            Dbi.Guest.call m "kernel" (fun () ->
                Dbi.Guest.read m 0x200000 8;
                Dbi.Guest.flop m 10000));
        Dbi.Guest.call m "p2" (fun () ->
            Dbi.Guest.call m "kernel" (fun () ->
                Dbi.Guest.read_range m 0x300000 1024;
                Dbi.Guest.flop m 100)))
  in
  let cdfg = run_guest body in
  let ranked = Analysis.Partition.rank (Analysis.Partition.trim cdfg) in
  let kernels =
    List.filter (fun (c : Analysis.Partition.candidate) -> c.Analysis.Partition.name = "kernel")
      ranked
  in
  Alcotest.(check int) "kernel once" 1 (List.length kernels)

let test_top_bottom () =
  let mk name breakeven =
    {
      Analysis.Partition.ctx = 0;
      name;
      path = name;
      breakeven;
      coverage = 0.1;
      incl_cycles = 100;
      input_unique = 0;
      output_unique = 0;
      incl_ops = 100;
    }
  in
  let ranked = [ mk "a" 1.0; mk "b" 1.5; mk "c" 2.0 ] in
  Alcotest.(check (list string)) "top 2" [ "a"; "b" ]
    (List.map
       (fun (c : Analysis.Partition.candidate) -> c.Analysis.Partition.name)
       (Analysis.Partition.top 2 ranked));
  Alcotest.(check (list string)) "bottom 2 worst first" [ "c"; "b" ]
    (List.map
       (fun (c : Analysis.Partition.candidate) -> c.Analysis.Partition.name)
       (Analysis.Partition.bottom 2 ranked))

let suite =
  ( "partition",
    [
      ( "partition",
        [
          Alcotest.test_case "breakeven ordering" `Quick test_breakeven_ordering;
          Alcotest.test_case "breakeven formula" `Quick test_breakeven_formula;
          Alcotest.test_case "bus width matters" `Quick test_bus_width_matters;
          Alcotest.test_case "trim selects and excludes" `Quick test_trim_selects_and_excludes;
          Alcotest.test_case "driver box blocked" `Quick test_driver_box_blocked;
          Alcotest.test_case "syscalls never candidates" `Quick test_syscalls_never_candidates;
          Alcotest.test_case "rank dedups by name" `Quick test_rank_dedups_by_name;
          Alcotest.test_case "top and bottom" `Quick test_top_bottom;
        ] );
    ] )
