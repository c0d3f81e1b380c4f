let tiny =
  {
    Cachesim.Hierarchy.l1i = { Cachesim.Cache.size = 512; assoc = 2; line = 64 };
    l1d = { Cachesim.Cache.size = 512; assoc = 2; line = 64 };
    ll = { Cachesim.Cache.size = 4096; assoc = 4; line = 64 };
  }

let level = Alcotest.int

let test_read_counts () =
  let h = Cachesim.Hierarchy.create tiny in
  Alcotest.(check level) "cold read misses LL" Cachesim.Hierarchy.ll_miss
    (Cachesim.Hierarchy.data_read h 0 8);
  let c = Cachesim.Hierarchy.counts h in
  Alcotest.(check int) "dr" 1 c.Cachesim.Hierarchy.dr;
  Alcotest.(check int) "cold miss both levels" 1 c.Cachesim.Hierarchy.d1mr;
  Alcotest.(check int) "ll miss" 1 c.Cachesim.Hierarchy.dlmr;
  Alcotest.(check level) "second read level" Cachesim.Hierarchy.l1_hit
    (Cachesim.Hierarchy.data_read h 0 8);
  let c = Cachesim.Hierarchy.counts h in
  Alcotest.(check int) "second read hits L1" 1 c.Cachesim.Hierarchy.d1mr

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
    (Cachesim.Hierarchy.data_read h 0 8);
  let c = Cachesim.Hierarchy.counts h in
  Alcotest.(check int) "4 L1 misses" 4 c.Cachesim.Hierarchy.d1mr;
  Alcotest.(check int) "only 3 LL misses" 3 c.Cachesim.Hierarchy.dlmr

let test_write_counts () =
  let h = Cachesim.Hierarchy.create tiny in
  Alcotest.(check level) "cold write" Cachesim.Hierarchy.ll_miss
    (Cachesim.Hierarchy.data_write h 0 8);
  Alcotest.(check level) "warm write" Cachesim.Hierarchy.l1_hit
    (Cachesim.Hierarchy.data_write h 0 8);
  let c = Cachesim.Hierarchy.counts h in
  Alcotest.(check int) "dw" 2 c.Cachesim.Hierarchy.dw;
  Alcotest.(check int) "one write miss" 1 c.Cachesim.Hierarchy.d1mw

let test_instruction_path_separate () =
  let h = Cachesim.Hierarchy.create tiny in
  Alcotest.(check level) "cold fetch" Cachesim.Hierarchy.ll_miss
    (Cachesim.Hierarchy.fetch h 0 4);
  Alcotest.(check level) "read of fetched line" Cachesim.Hierarchy.ll_hit
    (Cachesim.Hierarchy.data_read h 0 4);
  let c = Cachesim.Hierarchy.counts h in
  (* the data read misses L1D (separate from L1I) but hits the shared LL *)
  Alcotest.(check int) "i1 miss" 1 c.Cachesim.Hierarchy.i1mr;
  Alcotest.(check int) "d1 miss" 1 c.Cachesim.Hierarchy.d1mr;
  Alcotest.(check int) "LL hit for data" 0 c.Cachesim.Hierarchy.dlmr

let test_level_values () =
  Alcotest.(check (list int)) "0/1/2" [ 0; 1; 2 ]
    Cachesim.Hierarchy.[ l1_hit; ll_hit; ll_miss ]

let test_fetch_hits () =
  let h = Cachesim.Hierarchy.create tiny in
  Alcotest.(check level) "cold fetch" Cachesim.Hierarchy.ll_miss
    (Cachesim.Hierarchy.fetch h 64 4);
  Cachesim.Hierarchy.fetch_hits h 15;
  let c = Cachesim.Hierarchy.counts h in
  Alcotest.(check int) "ir counts every fetch" 16 c.Cachesim.Hierarchy.ir;
  Alcotest.(check int) "one i1 miss" 1 c.Cachesim.Hierarchy.i1mr;
  let l1i = Cachesim.Hierarchy.l1i h in
  Alcotest.(check int) "l1i accesses" 16 (Cachesim.Cache.accesses l1i);
  Alcotest.(check int) "l1i misses" 1 (Cachesim.Cache.misses l1i);
  Alcotest.(check int) "ll untouched by hits" 1
    (Cachesim.Cache.accesses (Cachesim.Hierarchy.ll h));
  Alcotest.(check level) "line still resident" Cachesim.Hierarchy.l1_hit
    (Cachesim.Hierarchy.fetch h 124 4)

let test_counts_arithmetic () =
  let a = { Cachesim.Hierarchy.zero_counts with Cachesim.Hierarchy.ir = 3; d1mr = 1 } in
  let b = { Cachesim.Hierarchy.zero_counts with Cachesim.Hierarchy.ir = 4; dlmw = 2 } in
  let s = Cachesim.Hierarchy.add_counts a b in
  Alcotest.(check int) "ir adds" 7 s.Cachesim.Hierarchy.ir;
  Alcotest.(check int) "l1 misses" 1 (Cachesim.Hierarchy.l1_misses s);
  Alcotest.(check int) "ll misses" 2 (Cachesim.Hierarchy.ll_misses s)

let () =
  Alcotest.run "hierarchy"
    [
      ( "hierarchy",
        [
          Alcotest.test_case "read counts" `Quick test_read_counts;
          Alcotest.test_case "ll catches l1 eviction" `Quick test_ll_catches_l1_eviction;
          Alcotest.test_case "write counts" `Quick test_write_counts;
          Alcotest.test_case "instruction path separate" `Quick test_instruction_path_separate;
          Alcotest.test_case "counts arithmetic" `Quick test_counts_arithmetic;
          Alcotest.test_case "level values" `Quick test_level_values;
          Alcotest.test_case "fetch hits" `Quick test_fetch_hits;
        ] );
    ]
