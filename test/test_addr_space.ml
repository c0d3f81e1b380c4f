let test_alloc_aligned () =
  let t = Dbi.Addr_space.create () in
  let a = Dbi.Addr_space.alloc t 13 in
  Alcotest.(check int) "8-aligned" 0 (a land 7);
  Alcotest.(check bool) "at or above heap base" true (a >= Dbi.Addr_space.heap_base)

let test_alloc_disjoint () =
  let t = Dbi.Addr_space.create () in
  let a = Dbi.Addr_space.alloc t 100 in
  let b = Dbi.Addr_space.alloc t 100 in
  Alcotest.(check bool) "disjoint" true (b >= a + 100 || a >= b + 100)

let test_free_and_reuse () =
  let t = Dbi.Addr_space.create () in
  let a = Dbi.Addr_space.alloc t 64 in
  Dbi.Addr_space.free t a;
  let b = Dbi.Addr_space.alloc t 64 in
  Alcotest.(check int) "freed block reused" a b

let test_free_requires_live_base () =
  let t = Dbi.Addr_space.create () in
  let a = Dbi.Addr_space.alloc t 64 in
  Alcotest.check_raises "mid-block free rejected"
    (Invalid_argument "Addr_space.free: not a live block base") (fun () ->
      Dbi.Addr_space.free t (a + 8));
  Dbi.Addr_space.free t a;
  Alcotest.check_raises "double free rejected"
    (Invalid_argument "Addr_space.free: not a live block base") (fun () ->
      Dbi.Addr_space.free t a)

let test_split_fit () =
  let t = Dbi.Addr_space.create () in
  let a = Dbi.Addr_space.alloc t 128 in
  Dbi.Addr_space.free t a;
  let b = Dbi.Addr_space.alloc t 32 in
  let c = Dbi.Addr_space.alloc t 32 in
  Alcotest.(check int) "first split piece" a b;
  Alcotest.(check int) "second split piece" (a + 32) c

let test_live_accounting () =
  let t = Dbi.Addr_space.create () in
  let a = Dbi.Addr_space.alloc t 100 in
  let _b = Dbi.Addr_space.alloc t 50 in
  Alcotest.(check int) "live bytes aligned" (104 + 56) (Dbi.Addr_space.heap_live_bytes t);
  Alcotest.(check int) "two blocks" 2 (Dbi.Addr_space.live_blocks t);
  Dbi.Addr_space.free t a;
  Alcotest.(check int) "after free" 56 (Dbi.Addr_space.heap_live_bytes t);
  Alcotest.(check int) "one block" 1 (Dbi.Addr_space.live_blocks t)

let test_live_block_lookup () =
  let t = Dbi.Addr_space.create () in
  let a = Dbi.Addr_space.alloc t 64 in
  Alcotest.(check (option (pair int int))) "interior lookup" (Some (a, 64))
    (Dbi.Addr_space.live_block t (a + 10));
  Alcotest.(check (option (pair int int))) "outside lookup" None
    (Dbi.Addr_space.live_block t (a + 64))

let test_frames_lifo () =
  let t = Dbi.Addr_space.create () in
  let f1 = Dbi.Addr_space.push_frame t 32 in
  let f2 = Dbi.Addr_space.push_frame t 32 in
  Alcotest.(check bool) "stack grows down" true (f2 < f1);
  Alcotest.(check bool) "below stack top" true (f1 < Dbi.Addr_space.stack_top);
  Dbi.Addr_space.pop_frame t;
  Dbi.Addr_space.pop_frame t;
  Alcotest.check_raises "pop on empty" (Invalid_argument "Addr_space.pop_frame: no live frame")
    (fun () -> Dbi.Addr_space.pop_frame t)

let test_bad_sizes () =
  let t = Dbi.Addr_space.create () in
  Alcotest.check_raises "zero alloc" (Invalid_argument "Addr_space.alloc: size must be positive")
    (fun () -> ignore (Dbi.Addr_space.alloc t 0));
  Alcotest.check_raises "zero frame"
    (Invalid_argument "Addr_space.push_frame: size must be positive") (fun () ->
      ignore (Dbi.Addr_space.push_frame t 0))

(* random alloc/free interleavings never produce overlapping live blocks *)
let qcheck_no_overlap =
  QCheck.Test.make ~name:"no live blocks overlap" ~count:100
    QCheck.(list (pair bool (int_range 1 256)))
    (fun ops ->
      let t = Dbi.Addr_space.create () in
      let live = ref [] in
      List.iter
        (fun (is_alloc, size) ->
          if is_alloc || !live = [] then begin
            let a = Dbi.Addr_space.alloc t size in
            live := (a, size) :: !live
          end
          else
            match !live with
            | (a, _) :: rest ->
              Dbi.Addr_space.free t a;
              live := rest
            | [] -> ())
        ops;
      let rec pairs = function
        | [] -> true
        | (a, sa) :: rest ->
          List.for_all (fun (b, sb) -> a + sa <= b || b + sb <= a) rest && pairs rest
      in
      pairs !live)

let suite =
  ( "addr_space",
    [
      ( "addr_space",
        [
          Alcotest.test_case "alloc aligned" `Quick test_alloc_aligned;
          Alcotest.test_case "alloc disjoint" `Quick test_alloc_disjoint;
          Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
          Alcotest.test_case "free requires live base" `Quick test_free_requires_live_base;
          Alcotest.test_case "split fit" `Quick test_split_fit;
          Alcotest.test_case "live accounting" `Quick test_live_accounting;
          Alcotest.test_case "live block lookup" `Quick test_live_block_lookup;
          Alcotest.test_case "frames lifo" `Quick test_frames_lifo;
          Alcotest.test_case "bad sizes" `Quick test_bad_sizes;
          QCheck_alcotest.to_alcotest qcheck_no_overlap;
        ] );
    ] )
