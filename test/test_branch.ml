let test_learns_stable_pattern () =
  let b = Cachesim.Branch.create ~entries:64 () in
  (* always-taken branch: after warmup, predictions are correct *)
  for _ = 1 to 4 do
    ignore (Cachesim.Branch.predict b 0x1000 true)
  done;
  let correct = Cachesim.Branch.predict b 0x1000 true in
  Alcotest.(check bool) "learned taken" true correct

let test_alternating_hurts () =
  let b = Cachesim.Branch.create ~entries:64 () in
  for i = 1 to 100 do
    ignore (Cachesim.Branch.predict b 0x2000 (i mod 2 = 0))
  done;
  (* 2-bit counters mispredict heavily on alternation *)
  Alcotest.(check bool) "many mispredicts" true (Cachesim.Branch.mispredicts b > 30)

let test_counters () =
  let b = Cachesim.Branch.create ~entries:64 () in
  for _ = 1 to 10 do
    ignore (Cachesim.Branch.predict b 0x3000 true)
  done;
  Alcotest.(check int) "branches" 10 (Cachesim.Branch.branches b);
  Alcotest.(check bool) "mispredicts bounded" true (Cachesim.Branch.mispredicts b <= 10)

let test_sites_independent () =
  let b = Cachesim.Branch.create ~entries:1024 () in
  for _ = 1 to 8 do
    ignore (Cachesim.Branch.predict b 0x100 true);
    ignore (Cachesim.Branch.predict b 0x200 false)
  done;
  Alcotest.(check bool) "both learned" true
    (Cachesim.Branch.predict b 0x100 true && Cachesim.Branch.predict b 0x200 false)

let test_entries_validation () =
  Alcotest.check_raises "bad entries"
    (Invalid_argument "Branch.create: entries must be a positive power of two") (fun () ->
      ignore (Cachesim.Branch.create ~entries:100 ()))

let suite =
  ( "branch",
    [
      ( "branch",
        [
          Alcotest.test_case "learns stable pattern" `Quick test_learns_stable_pattern;
          Alcotest.test_case "alternating hurts" `Quick test_alternating_hurts;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "sites independent" `Quick test_sites_independent;
          Alcotest.test_case "entries validation" `Quick test_entries_validation;
        ] );
    ] )
