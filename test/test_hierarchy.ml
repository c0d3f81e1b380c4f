let tiny =
  {
    Cachesim.Hierarchy.l1i = { Cachesim.Cache.size = 512; assoc = 2; line = 64 };
    l1d = { Cachesim.Cache.size = 512; assoc = 2; line = 64 };
    ll = { Cachesim.Cache.size = 4096; assoc = 4; line = 64 };
  }

let level = Alcotest.int

let test_read_levels () =
  let h = Cachesim.Hierarchy.create tiny in
  Alcotest.(check level) "cold read misses LL" Cachesim.Hierarchy.ll_miss
    (Cachesim.Hierarchy.data_read h 0 8);
  Alcotest.(check level) "second read hits L1" Cachesim.Hierarchy.l1_hit
    (Cachesim.Hierarchy.data_read h 0 8)

let test_ll_catches_l1_eviction () =
  let h = Cachesim.Hierarchy.create tiny in
  (* L1D: 512/2/64 = 4 sets; lines at stride 256 collide in set 0 *)
  List.iter
    (fun addr ->
      Alcotest.(check level) "cold" Cachesim.Hierarchy.ll_miss
        (Cachesim.Hierarchy.data_read h addr 8))
    [ 0; 256; 512 ];
  (* line 0 was evicted from L1 by the third read but is still in LL *)
  Alcotest.(check level) "LL catches it" Cachesim.Hierarchy.ll_hit
    (Cachesim.Hierarchy.data_read h 0 8)

let test_write_levels () =
  let h = Cachesim.Hierarchy.create tiny in
  Alcotest.(check level) "cold write" Cachesim.Hierarchy.ll_miss
    (Cachesim.Hierarchy.data_write h 0 8);
  Alcotest.(check level) "warm write" Cachesim.Hierarchy.l1_hit
    (Cachesim.Hierarchy.data_write h 0 8)

let test_instruction_path_separate () =
  let h = Cachesim.Hierarchy.create tiny in
  Alcotest.(check level) "cold fetch" Cachesim.Hierarchy.ll_miss
    (Cachesim.Hierarchy.fetch h 0 4);
  (* the data read misses L1D (separate from L1I) but hits the shared LL *)
  Alcotest.(check level) "read of fetched line" Cachesim.Hierarchy.ll_hit
    (Cachesim.Hierarchy.data_read h 0 4)

let test_level_values () =
  Alcotest.(check (list int)) "0/1/2" [ 0; 1; 2 ]
    Cachesim.Hierarchy.[ l1_hit; ll_hit; ll_miss ]

let test_same_line_fetch () =
  let h = Cachesim.Hierarchy.create tiny in
  Alcotest.(check level) "cold fetch" Cachesim.Hierarchy.ll_miss
    (Cachesim.Hierarchy.fetch h 64 4);
  Alcotest.(check level) "line still resident" Cachesim.Hierarchy.l1_hit
    (Cachesim.Hierarchy.fetch h 124 4)

let suite =
  ( "hierarchy",
    [
      ( "hierarchy",
        [
          Alcotest.test_case "read counts" `Quick test_read_levels;
          Alcotest.test_case "ll catches l1 eviction" `Quick test_ll_catches_l1_eviction;
          Alcotest.test_case "write counts" `Quick test_write_levels;
          Alcotest.test_case "instruction path separate" `Quick test_instruction_path_separate;
          Alcotest.test_case "level values" `Quick test_level_values;
          Alcotest.test_case "fetch hits" `Quick test_same_line_fetch;
        ] );
    ] )
