let make_symbols names =
  let syms = Dbi.Symbol.create () in
  let ids = List.map (Dbi.Symbol.intern syms) names in
  (syms, ids)

let test_root_exists () =
  let t = Dbi.Context.create () in
  Alcotest.(check int) "only root" 1 (Dbi.Context.count t);
  Alcotest.(check int) "root depth" 0 (Dbi.Context.depth t Dbi.Context.root);
  Alcotest.(check (option int)) "root has no parent" None (Dbi.Context.parent t Dbi.Context.root)

let test_enter_interns () =
  let t = Dbi.Context.create () in
  let a = Dbi.Context.enter t Dbi.Context.root 0 in
  let a' = Dbi.Context.enter t Dbi.Context.root 0 in
  Alcotest.(check int) "same path same ctx" a a';
  Alcotest.(check int) "two nodes" 2 (Dbi.Context.count t)

let test_context_sensitivity () =
  (* D called from B and from C gets two distinct contexts (the paper's
     D1/D2 in Fig 2) *)
  let t = Dbi.Context.create () in
  let b = Dbi.Context.enter t Dbi.Context.root 1 in
  let c = Dbi.Context.enter t Dbi.Context.root 2 in
  let d1 = Dbi.Context.enter t b 3 in
  let d2 = Dbi.Context.enter t c 3 in
  Alcotest.(check bool) "distinct contexts" true (d1 <> d2);
  Alcotest.(check int) "same function" (Dbi.Context.fn t d1) (Dbi.Context.fn t d2)

let test_depth_and_parent () =
  let t = Dbi.Context.create () in
  let a = Dbi.Context.enter t Dbi.Context.root 0 in
  let b = Dbi.Context.enter t a 1 in
  Alcotest.(check int) "depth 2" 2 (Dbi.Context.depth t b);
  Alcotest.(check (option int)) "parent" (Some a) (Dbi.Context.parent t b)

let test_path_rendering () =
  let syms, ids = make_symbols [ "main"; "localSearch"; "pkmedian" ] in
  let t = Dbi.Context.create () in
  let ctx =
    List.fold_left (fun parent fn -> Dbi.Context.enter t parent fn) Dbi.Context.root ids
  in
  let names = Dbi.Names.make ~symbols:syms ~contexts:t in
  Alcotest.(check string) "path" "main/localSearch/pkmedian" (Dbi.Names.path names ctx);
  Alcotest.(check string) "root path" "<root>" (Dbi.Names.path names Dbi.Context.root)

let test_children_order () =
  let t = Dbi.Context.create () in
  let a = Dbi.Context.enter t Dbi.Context.root 0 in
  let b = Dbi.Context.enter t Dbi.Context.root 1 in
  let c = Dbi.Context.enter t Dbi.Context.root 2 in
  ignore (Dbi.Context.enter t Dbi.Context.root 1);
  Alcotest.(check (list int)) "creation order, no dups" [ a; b; c ]
    (Dbi.Context.children t Dbi.Context.root)

let test_recursion_chains () =
  (* self-recursion makes a fresh context per depth level *)
  let t = Dbi.Context.create () in
  let rec go parent n acc =
    if n = 0 then acc
    else
      let ctx = Dbi.Context.enter t parent 0 in
      go ctx (n - 1) (ctx :: acc)
  in
  let ctxs = go Dbi.Context.root 5 [] in
  let distinct = List.sort_uniq compare ctxs in
  Alcotest.(check int) "five distinct" 5 (List.length distinct)

let test_fn_of_root_rejected () =
  let t = Dbi.Context.create () in
  Alcotest.check_raises "root has no fn" (Invalid_argument "Context.fn: root has no function")
    (fun () -> ignore (Dbi.Context.fn t Dbi.Context.root))

let suite =
  ( "context",
    [
      ( "context",
        [
          Alcotest.test_case "root exists" `Quick test_root_exists;
          Alcotest.test_case "enter interns" `Quick test_enter_interns;
          Alcotest.test_case "context sensitivity" `Quick test_context_sensitivity;
          Alcotest.test_case "depth and parent" `Quick test_depth_and_parent;
          Alcotest.test_case "path rendering" `Quick test_path_rendering;
          Alcotest.test_case "children order" `Quick test_children_order;
          Alcotest.test_case "recursion chains" `Quick test_recursion_chains;
          Alcotest.test_case "fn of root rejected" `Quick test_fn_of_root_rejected;
        ] );
    ] )
