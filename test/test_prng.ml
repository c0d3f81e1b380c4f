let test_determinism () =
  let a = Dbi.Prng.create 42L and b = Dbi.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Dbi.Prng.next a) (Dbi.Prng.next b)
  done

let test_seed_sensitivity () =
  let a = Dbi.Prng.create 1L and b = Dbi.Prng.create 2L in
  Alcotest.(check bool) "different seeds differ" true (Dbi.Prng.next a <> Dbi.Prng.next b)

let test_of_string_deterministic () =
  let a = Dbi.Prng.of_string "blackscholes:simsmall" in
  let b = Dbi.Prng.of_string "blackscholes:simsmall" in
  Alcotest.(check int64) "same string same stream" (Dbi.Prng.next a) (Dbi.Prng.next b);
  let c = Dbi.Prng.of_string "blackscholes:simmedium" in
  Alcotest.(check bool) "different string differs" true (Dbi.Prng.next a <> Dbi.Prng.next c)

let test_int_bounds () =
  let rng = Dbi.Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Dbi.Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_bound_one () =
  let rng = Dbi.Prng.create 7L in
  for _ = 1 to 10 do
    Alcotest.(check int) "bound 1 always 0" 0 (Dbi.Prng.int rng 1)
  done

let test_int_distribution () =
  let rng = Dbi.Prng.create 5L in
  let counts = Array.make 8 0 in
  for _ = 1 to 8000 do
    let v = Dbi.Prng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "bucket %d populated" i) true (c > 700 && c < 1300))
    counts

let qcheck_int_in_range =
  QCheck.Test.make ~name:"Prng.int stays in range" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Dbi.Prng.create seed in
      let v = Dbi.Prng.int rng bound in
      v >= 0 && v < bound)

let suite =
  ( "prng",
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "of_string deterministic" `Quick test_of_string_deterministic;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int bound one" `Quick test_int_bound_one;
          Alcotest.test_case "int distribution" `Quick test_int_distribution;
          QCheck_alcotest.to_alcotest qcheck_int_in_range;
        ] );
    ] )
