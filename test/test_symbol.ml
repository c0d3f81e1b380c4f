let test_intern_idempotent () =
  let t = Dbi.Symbol.create () in
  let a = Dbi.Symbol.intern t "main" in
  let b = Dbi.Symbol.intern t "main" in
  Alcotest.(check int) "same id" a b;
  Alcotest.(check int) "count" 1 (Dbi.Symbol.count t)

let test_dense_ids () =
  let t = Dbi.Symbol.create () in
  let ids = List.map (Dbi.Symbol.intern t) [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check (list int)) "dense from zero" [ 0; 1; 2; 3 ] ids

let test_name_roundtrip () =
  let t = Dbi.Symbol.create () in
  let id = Dbi.Symbol.intern t "pkmedian" in
  Alcotest.(check string) "name back" "pkmedian" (Dbi.Symbol.name t id)

let test_stripped_names () =
  let t = Dbi.Symbol.create ~stripped:true () in
  let id = Dbi.Symbol.intern t "secret_function" in
  Alcotest.(check bool) "stripped flag" true (Dbi.Symbol.is_stripped t);
  Alcotest.(check string) "degraded name" ("???:" ^ string_of_int id) (Dbi.Symbol.name t id)

let test_code_bases_disjoint () =
  let t = Dbi.Symbol.create () in
  let a = Dbi.Symbol.intern t "f" and b = Dbi.Symbol.intern t "g" in
  let ba = Dbi.Symbol.code_base t a and bb = Dbi.Symbol.code_base t b in
  Alcotest.(check bool) "pages disjoint" true (abs (ba - bb) >= Dbi.Symbol.code_page_size);
  Alcotest.(check bool) "above data space" true (ba > Dbi.Addr_space.stack_top)

let test_unknown_id_rejected () =
  let t = Dbi.Symbol.create () in
  Alcotest.check_raises "bad id" (Invalid_argument "Symbol: unknown id") (fun () ->
      ignore (Dbi.Symbol.name t 5))

let test_iter_order () =
  let t = Dbi.Symbol.create () in
  List.iter (fun n -> ignore (Dbi.Symbol.intern t n)) [ "x"; "y"; "z" ];
  let seen = ref [] in
  Dbi.Symbol.iter t (fun id name -> seen := (id, name) :: !seen);
  Alcotest.(check (list (pair int string)))
    "id order" [ (0, "x"); (1, "y"); (2, "z") ] (List.rev !seen)

let test_growth () =
  let t = Dbi.Symbol.create () in
  for i = 0 to 499 do
    ignore (Dbi.Symbol.intern t ("fn" ^ string_of_int i))
  done;
  Alcotest.(check int) "count grows" 500 (Dbi.Symbol.count t);
  Alcotest.(check string) "late name intact" "fn499" (Dbi.Symbol.name t 499)

let suite =
  ( "symbol",
    [
      ( "symbol",
        [
          Alcotest.test_case "intern idempotent" `Quick test_intern_idempotent;
          Alcotest.test_case "dense ids" `Quick test_dense_ids;
          Alcotest.test_case "name roundtrip" `Quick test_name_roundtrip;
          Alcotest.test_case "stripped names" `Quick test_stripped_names;
          Alcotest.test_case "code bases disjoint" `Quick test_code_bases_disjoint;
          Alcotest.test_case "unknown id rejected" `Quick test_unknown_id_rejected;
          Alcotest.test_case "iter order" `Quick test_iter_order;
          Alcotest.test_case "table growth" `Quick test_growth;
        ] );
    ] )
