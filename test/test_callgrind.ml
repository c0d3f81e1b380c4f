(* Run a small guest program under the Callgrind tool and check its cost
   attribution. Call overhead is disabled so counts are exact. *)
let run_guest body =
  let tool = ref None in
  let r =
    Dbi.Runner.run ~call_overhead:0
      ~tools:[ (fun m -> let t = Callgrind.Tool.create m in tool := Some t; Callgrind.Tool.tool t) ]
      body
  in
  (Option.get !tool, r.Dbi.Runner.machine)

let find_ctx m path_wanted =
  let contexts = Dbi.Machine.contexts m in
  let names = Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts in
  let found = ref None in
  Dbi.Context.iter contexts (fun ctx ->
      if Dbi.Names.path names ctx = path_wanted then found := Some ctx);
  match !found with
  | Some ctx -> ctx
  | None -> Alcotest.failf "no context %s" path_wanted

let test_ir_attribution () =
  let tool, m =
    run_guest (fun m ->
        Dbi.Guest.call m "main" (fun () ->
            Dbi.Guest.iop m 5;
            Dbi.Guest.call m "f" (fun () ->
                Dbi.Guest.flop m 3;
                Dbi.Guest.read m 0x200000 8;
                Dbi.Guest.write m 0x200010 8);
            Dbi.Guest.branch m true))
  in
  let main_cost = Callgrind.Tool.cost tool (find_ctx m "main") in
  let f_cost = Callgrind.Tool.cost tool (find_ctx m "main/f") in
  (* main: 5 ops + 1 branch = 6 Ir; f: 3 ops + 2 accesses = 5 Ir *)
  Alcotest.(check int) "main ir" 6 main_cost.Callgrind.Cost.ir;
  Alcotest.(check int) "f ir" 5 f_cost.Callgrind.Cost.ir;
  Alcotest.(check int) "f fp ops" 3 f_cost.Callgrind.Cost.fp_ops;
  Alcotest.(check int) "f dr" 1 f_cost.Callgrind.Cost.dr;
  Alcotest.(check int) "f dw" 1 f_cost.Callgrind.Cost.dw;
  Alcotest.(check int) "main bc" 1 main_cost.Callgrind.Cost.bc;
  Alcotest.(check int) "f calls" 1 f_cost.Callgrind.Cost.calls

let test_inclusive_cost () =
  let tool, m =
    run_guest (fun m ->
        Dbi.Guest.call m "main" (fun () ->
            Dbi.Guest.iop m 10;
            Dbi.Guest.call m "f" (fun () -> Dbi.Guest.iop m 7)))
  in
  let incl = Callgrind.Tool.inclusive_cost tool (find_ctx m "main") in
  Alcotest.(check int) "inclusive int ops" 17 incl.Callgrind.Cost.int_ops;
  let total = Callgrind.Tool.total tool in
  Alcotest.(check int) "total matches" 17 total.Callgrind.Cost.int_ops

let test_cache_misses_attributed () =
  let tool, m =
    run_guest (fun m ->
        Dbi.Guest.call m "main" (fun () ->
            Dbi.Guest.call m "cold" (fun () ->
                (* 64 distinct lines: all cold misses *)
                for i = 0 to 63 do
                  Dbi.Guest.read m (0x200000 + (i * 64)) 8
                done);
            Dbi.Guest.call m "hot" (fun () ->
                for _ = 1 to 4 do
                  Dbi.Guest.read m 0x200000 8
                done)))
  in
  let cold = Callgrind.Tool.cost tool (find_ctx m "main/cold") in
  let hot = Callgrind.Tool.cost tool (find_ctx m "main/hot") in
  Alcotest.(check int) "cold D1 misses" 64 cold.Callgrind.Cost.d1mr;
  Alcotest.(check int) "hot no D1 misses" 0 hot.Callgrind.Cost.d1mr

let test_estimate_formula () =
  let c = Callgrind.Cost.zero () in
  c.Callgrind.Cost.ir <- 100;
  c.Callgrind.Cost.bcm <- 2;
  c.Callgrind.Cost.d1mr <- 3;
  c.Callgrind.Cost.dlmw <- 1;
  (* 100 + 10*2 + 10*3 + 100*1 *)
  Alcotest.(check int) "CEst" 250 (Callgrind.Estimate.cycles c)

let test_cost_arithmetic () =
  let a = Callgrind.Cost.zero () and b = Callgrind.Cost.zero () in
  a.Callgrind.Cost.ir <- 5;
  b.Callgrind.Cost.ir <- 7;
  b.Callgrind.Cost.i1mr <- 2;
  Callgrind.Cost.add ~into:a b;
  Alcotest.(check int) "added" 12 a.Callgrind.Cost.ir;
  Alcotest.(check int) "l1 misses" 2 (Callgrind.Cost.l1_misses a);
  let c = Callgrind.Cost.copy a in
  c.Callgrind.Cost.ir <- 0;
  Alcotest.(check int) "copy is independent" 12 a.Callgrind.Cost.ir

let test_unvisited_ctx_zero_cost () =
  let tool, _ = run_guest (fun m -> Dbi.Guest.call m "main" (fun () -> ())) in
  let c = Callgrind.Tool.cost tool 9999 in
  Alcotest.(check int) "zero" 0 c.Callgrind.Cost.ir

(* An access that straddles a 64 B line touches both lines, so the second
   line is warm afterwards. No PARSEC clone makes a straddle whose second
   line changes a count, so this guest does, for reads and writes, at the
   default geometry and under the cache spec: a line walk that stopped at
   the first line would miss twice in each pair. *)
let test_straddling_accesses () =
  let guest m =
    Dbi.Guest.call m "main" (fun () ->
        Dbi.Guest.read m (0x200000 + 60) 8;
        Dbi.Guest.read m (0x200000 + 64) 8;
        Dbi.Guest.write m (0x300000 + 62) 4;
        Dbi.Guest.write m (0x300000 + 64) 4)
  in
  match Cache_spec.check ~call_overhead:0 guest with
  | Error e -> Alcotest.fail e
  | Ok tool ->
    let c = Callgrind.Tool.total tool in
    Alcotest.(check (list int))
      "D1mr D1mw DLmr DLmw: only the straddles miss" [ 1; 1; 1; 1 ]
      Callgrind.Cost.[ c.d1mr; c.d1mw; c.dlmr; c.dlmw ]

(* Whole-program Callgrind totals for every PARSEC clone at simsmall, pinned
   from the per-fetch cache model before fetches were batched per line.
   Any change to the cache simulator or to Callgrind's charging must leave
   every counter here unchanged. The same runs carry the cache spec of
   cache_spec.ml, which must agree with every context's cost. *)
type golden = {
  ir : int;
  dr : int;
  dw : int;
  i1mr : int;
  d1mr : int;
  d1mw : int;
  ilmr : int;
  dlmr : int;
  dlmw : int;
  calls : int;
  cycles : int;
}

let simsmall_goldens =
  [
    ( "blackscholes",
      { ir = 1478258; dr = 81666; dw = 32473; i1mr = 1381; d1mr = 1547; d1mw = 1608;
        ilmr = 1375; dlmr = 2; dlmw = 1601; calls = 11245; cycles = 1821418 } );
    ( "bodytrack",
      { ir = 3874154; dr = 191761; dw = 26371; i1mr = 1619; d1mr = 1; d1mw = 292;
        ilmr = 713; dlmr = 1; dlmw = 292; calls = 1974; cycles = 3993874 } );
    ( "canneal",
      { ir = 2550812; dr = 259758; dw = 127594; i1mr = 3555; d1mr = 9670; d1mw = 1959;
        ilmr = 1140; dlmr = 2; dlmw = 1123; calls = 48446; cycles = 2929152 } );
    ( "dedup",
      { ir = 7692243; dr = 337127; dw = 86878; i1mr = 9729; d1mr = 33; d1mw = 8419;
        ilmr = 858; dlmr = 2; dlmw = 8314; calls = 4486; cycles = 8791453 } );
    ( "facesim",
      { ir = 1242912; dr = 159646; dw = 92626; i1mr = 500; d1mr = 24828; d1mw = 4129;
        ilmr = 500; dlmr = 1; dlmw = 2476; calls = 132; cycles = 1835182 } );
    ( "ferret",
      { ir = 391272; dr = 144397; dw = 55579; i1mr = 639; d1mr = 98; d1mw = 981;
        ilmr = 620; dlmr = 1; dlmw = 975; calls = 734; cycles = 568052 } );
    ( "fluidanimate",
      { ir = 670240; dr = 75280; dw = 26110; i1mr = 566; d1mr = 1; d1mw = 506;
        ilmr = 566; dlmr = 1; dlmw = 506; calls = 39; cycles = 788270 } );
    ( "freqmine",
      { ir = 260387; dr = 62635; dw = 11056; i1mr = 402; d1mr = 4625; d1mw = 1380;
        ilmr = 402; dlmr = 92; dlmw = 938; calls = 2506; cycles = 467657 } );
    ( "raytrace",
      { ir = 1615598; dr = 301924; dw = 58076; i1mr = 626; d1mr = 34550; d1mw = 5800;
        ilmr = 626; dlmr = 1; dlmw = 5796; calls = 13015; cycles = 2667658 } );
    ( "streamcluster",
      { ir = 654076; dr = 174972; dw = 83591; i1mr = 734; d1mr = 8986; d1mw = 8840;
        ilmr = 572; dlmr = 1; dlmw = 1027; calls = 7631; cycles = 999676 } );
    ( "swaptions",
      { ir = 409898; dr = 108018; dw = 44672; i1mr = 406; d1mr = 1; d1mw = 28;
        ilmr = 406; dlmr = 1; dlmw = 28; calls = 6415; cycles = 457748 } );
    ( "vips",
      { ir = 376520; dr = 45834; dw = 21678; i1mr = 750; d1mr = 9; d1mw = 2233;
        ilmr = 749; dlmr = 1; dlmw = 968; calls = 66; cycles = 578240 } );
    ( "x264",
      { ir = 749194; dr = 101067; dw = 28629; i1mr = 706; d1mr = 65; d1mw = 585;
        ilmr = 682; dlmr = 1; dlmw = 585; calls = 1755; cycles = 889554 } );
  ]

let test_simsmall_goldens () =
  Alcotest.(check (list string))
    "every PARSEC clone pinned"
    (List.map (fun w -> w.Workloads.Workload.name) Workloads.Suite.parsec)
    (List.map fst simsmall_goldens);
  List.iter
    (fun (name, g) ->
      let w = Result.get_ok (Workloads.Suite.find name) in
      let tool =
        match Cache_spec.check (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall) with
        | Ok tool -> tool
        | Error e -> Alcotest.failf "%s: %s" name e
      in
      let c = Callgrind.Tool.total tool in
      let check field want got = Alcotest.(check int) (name ^ " " ^ field) want got in
      check "ir" g.ir c.Callgrind.Cost.ir;
      check "dr" g.dr c.Callgrind.Cost.dr;
      check "dw" g.dw c.Callgrind.Cost.dw;
      check "i1mr" g.i1mr c.Callgrind.Cost.i1mr;
      check "d1mr" g.d1mr c.Callgrind.Cost.d1mr;
      check "d1mw" g.d1mw c.Callgrind.Cost.d1mw;
      check "ilmr" g.ilmr c.Callgrind.Cost.ilmr;
      check "dlmr" g.dlmr c.Callgrind.Cost.dlmr;
      check "dlmw" g.dlmw c.Callgrind.Cost.dlmw;
      check "calls" g.calls c.Callgrind.Cost.calls;
      check "CEst" g.cycles (Callgrind.Estimate.cycles c))
    simsmall_goldens

(* The Callgrind hot path allocates nothing per event: a Callgrind-only
   run allocates what a no-op tool run does, up to per-context records and
   table growth. The per-fetch model this replaced allocated ~19 words per
   retired instruction. *)
let test_allocation_bound () =
  List.iter
    (fun name ->
      let w = Result.get_ok (Workloads.Suite.find name) in
      let words tool =
        let before = Gc.minor_words () in
        let r = Dbi.Runner.run ~tools:[ tool ] (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall) in
        (Gc.minor_words () -. before, Dbi.Machine.now r.Dbi.Runner.machine)
      in
      let nop, instr = words (fun _ -> Dbi.Tool.nop "nop") in
      let cg, instr' = words (fun m -> Callgrind.Tool.tool (Callgrind.Tool.create m)) in
      Alcotest.(check int) (name ^ " same instructions") instr instr';
      let per_instr = (cg -. nop) /. float_of_int instr in
      if per_instr > 0.01 then
        Alcotest.failf "%s: Callgrind allocates %.4f words per instruction (bound 0.01)" name
          per_instr)
    [ "canneal"; "dedup" ]

let () =
  Alcotest.run "callgrind"
    [
      ( "callgrind",
        [
          Alcotest.test_case "ir attribution" `Quick test_ir_attribution;
          Alcotest.test_case "inclusive cost" `Quick test_inclusive_cost;
          Alcotest.test_case "cache misses attributed" `Quick test_cache_misses_attributed;
          Alcotest.test_case "estimate formula" `Quick test_estimate_formula;
          Alcotest.test_case "cost arithmetic" `Quick test_cost_arithmetic;
          Alcotest.test_case "unvisited ctx zero cost" `Quick test_unvisited_ctx_zero_cost;
          Alcotest.test_case "straddling accesses" `Quick test_straddling_accesses;
          Alcotest.test_case "simsmall goldens" `Quick test_simsmall_goldens;
          Alcotest.test_case "allocation bound" `Quick test_allocation_bound;
        ] );
    ]
