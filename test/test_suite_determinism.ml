(* Parallel execution must never change results: a suite fanned over a
   domain pool produces bit-identical profiles to the sequential loop
   (every run's Machine/tool/PRNG state is run-local), and Compare.diff_many
   is an order-independent reduction. *)

let specs =
  [
    ("blackscholes", Workloads.Scale.Simsmall);
    ("canneal", Workloads.Scale.Simsmall);
    ("dedup", Workloads.Scale.Simsmall);
  ]

let jobs =
  List.map
    (fun (name, scale) -> Driver.job (Result.get_ok (Workloads.Suite.find name)) scale)
    specs

let profile_texts runs =
  List.map
    (fun r ->
      match r with
      | Ok run -> Sigil.Profile_io.to_string (Driver.sigil run)
      | Error e -> Alcotest.failf "workload failed: %s" (Driver.Run_error.to_string e))
    runs

let test_parallel_bit_identical () =
  let sequential = profile_texts (Driver.run_many jobs) in
  let parallel =
    Pool.with_pool ~domains:2 (fun p -> profile_texts (Driver.run_many ~pool:p jobs))
  in
  List.iteri
    (fun i (s, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "profile %d (%s) bit-identical" i (fst (List.nth specs i)))
        true (s = p))
    (List.combine sequential parallel);
  (* a second parallel sweep reproduces itself, too *)
  let parallel' =
    Pool.with_pool ~domains:3 (fun p -> profile_texts (Driver.run_many ~pool:p jobs))
  in
  Alcotest.(check bool) "3-domain sweep identical to 2-domain sweep" true (parallel = parallel')

let sigil_tool_of body =
  let tool = ref None in
  let _ =
    Dbi.Runner.run
      ~tools:
        [
          (fun m ->
            let t = Sigil.Tool.create m in
            tool := Some t;
            Sigil.Tool.tool t);
        ]
      body
  in
  Option.get !tool

let run_workload_tool name =
  match Workloads.Suite.find name with
  | Error e -> Alcotest.fail e
  | Ok w -> sigil_tool_of (fun m -> w.Workloads.Workload.run m Workloads.Scale.Simsmall)

let test_diff_many_order_independent () =
  let snap name = Sigil.Profile_io.snapshot_of_tool (run_workload_tool name) in
  let s1 = snap "blackscholes" and s2 = snap "canneal" in
  let d12 = Analysis.Compare.diff_many ~before:[ s1; s2 ] ~after:[ s2; s1 ] in
  let d21 = Analysis.Compare.diff_many ~before:[ s2; s1 ] ~after:[ s1; s2 ] in
  Alcotest.(check bool) "delta rows independent of shard order" true (d12 = d21);
  Alcotest.(check int) "merged sides are identical" 0
    (let c = Analysis.Compare.changed d12 in
     List.length c.paths + List.length c.edges)

let suite =
  ( "suite_determinism",
    [
      ( "determinism",
        [
          Alcotest.test_case "parallel suite bit-identical" `Quick test_parallel_bit_identical;
          Alcotest.test_case "Compare.diff_many order-independent" `Quick
            test_diff_many_order_independent;
        ] );
    ] )
