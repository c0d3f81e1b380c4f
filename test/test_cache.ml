let small = { Cachesim.Cache.size = 1024; assoc = 2; line = 64 }
(* 1024/2/64 = 8 sets *)

let test_cold_miss_then_hit () =
  let c = Cachesim.Cache.create small in
  Alcotest.(check bool) "first access misses" false (Cachesim.Cache.access c 0 8);
  Alcotest.(check bool) "second access hits" true (Cachesim.Cache.access c 0 8)

let test_same_line_hits () =
  let c = Cachesim.Cache.create small in
  ignore (Cachesim.Cache.access c 0 8);
  Alcotest.(check bool) "same line, other offset" true (Cachesim.Cache.access c 56 8)

let test_straddle_counts_one_access () =
  let c = Cachesim.Cache.create small in
  Alcotest.(check bool) "cold straddle misses" false (Cachesim.Cache.access c 60 8);
  (* touches lines 0 and 1 *)
  Alcotest.(check bool) "both lines now resident" true
    (Cachesim.Cache.access c 0 8 && Cachesim.Cache.access c 64 8)

let test_lru_eviction () =
  let c = Cachesim.Cache.create small in
  (* set 0 holds 2 ways; lines mapping to set 0 are 64-byte lines at
     stride sets*64 = 512 *)
  ignore (Cachesim.Cache.access c 0 8);
  ignore (Cachesim.Cache.access c 512 8);
  (* touch line 0 again so 512 is LRU *)
  ignore (Cachesim.Cache.access c 0 8);
  ignore (Cachesim.Cache.access c 1024 8);
  (* evicts 512 *)
  Alcotest.(check bool) "mru stays" true (Cachesim.Cache.access c 0 8);
  Alcotest.(check bool) "lru evicted" false (Cachesim.Cache.access c 512 8)

let test_full_occupancy () =
  let c = Cachesim.Cache.create small in
  for i = 0 to 15 do
    ignore (Cachesim.Cache.access c (i * 64) 8)
  done;
  for i = 0 to 15 do
    Alcotest.(check bool) (Printf.sprintf "line %d resident" i) true
      (Cachesim.Cache.access c (i * 64) 8)
  done

let test_geometry_validation () =
  Alcotest.check_raises "non-pow2"
    (Invalid_argument "Cache.create: geometry must be powers of two") (fun () ->
      ignore (Cachesim.Cache.create { Cachesim.Cache.size = 1000; assoc = 2; line = 64 }));
  Alcotest.check_raises "assoc*line > size"
    (Invalid_argument "Cache.create: assoc * line > size") (fun () ->
      ignore (Cachesim.Cache.create { Cachesim.Cache.size = 64; assoc = 2; line = 64 }))

(* One result per access, and every distinct line misses on its first
   touch (4-byte aligned accesses never straddle a line). *)
let qcheck_misses_bounded =
  QCheck.Test.make ~name:"misses <= accesses" ~count:200
    QCheck.(list (int_range 0 100_000))
    (fun addrs ->
      let addrs = List.map (fun a -> a land lnot 3) addrs in
      let c = Cachesim.Cache.create small in
      let misses = List.length (List.filter (fun a -> not (Cachesim.Cache.access c a 4)) addrs) in
      let lines = List.length (List.sort_uniq compare (List.map (fun a -> a / 64) addrs)) in
      lines <= misses && misses <= List.length addrs)

(* The cache against the LRU-stack spec of cache_spec.ml, access by
   access, over small geometries (down to one set, one way and one-byte
   lines) and accesses that straddle lines. *)
let qcheck_matches_spec =
  let gen =
    QCheck.Gen.(
      pair
        (triple (int_range 0 3) (int_range 0 2) (int_range 0 6))
        (list (pair (int_range 0 2048) (int_range 1 16))))
  in
  QCheck.Test.make ~name:"hits match the LRU-stack spec" ~count:300 (QCheck.make gen)
    (fun ((sets, ways, line), accesses) ->
      let assoc = 1 lsl ways and line = 1 lsl line in
      let cfg = { Cachesim.Cache.size = (1 lsl sets) * assoc * line; assoc; line } in
      let c = Cachesim.Cache.create cfg and spec = Cache_spec.cache cfg in
      List.for_all
        (fun (addr, len) -> Cachesim.Cache.access c addr len = Cache_spec.access spec addr len)
        accesses)

let qcheck_working_set_fits =
  QCheck.Test.make ~name:"small working set stops missing" ~count:50
    QCheck.(int_range 1 8)
    (fun nlines ->
      let c = Cachesim.Cache.create { Cachesim.Cache.size = 4096; assoc = 8; line = 64 } in
      (* touch nlines distinct lines twice; second round must all hit *)
      for i = 0 to nlines - 1 do
        ignore (Cachesim.Cache.access c (i * 64) 8)
      done;
      let all_hit = ref true in
      for i = 0 to nlines - 1 do
        if not (Cachesim.Cache.access c (i * 64) 8) then all_hit := false
      done;
      !all_hit)

let () =
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
          Alcotest.test_case "same line hits" `Quick test_same_line_hits;
          Alcotest.test_case "straddle counts one access" `Quick test_straddle_counts_one_access;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "full occupancy" `Quick test_full_occupancy;
          Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
          QCheck_alcotest.to_alcotest qcheck_misses_bounded;
          QCheck_alcotest.to_alcotest qcheck_matches_spec;
          QCheck_alcotest.to_alcotest qcheck_working_set_fits;
        ] );
    ]
