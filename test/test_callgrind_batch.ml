(* Differential test of the Callgrind tool, line-batched fetches and
   all, against the cache spec of cache_spec.ml: one fetch per retired op
   through LRU stacks that share no code with Cachesim. Both tools see the
   same event stream; every context's cost must agree. *)

type action =
  | Op of int
  | Fp of int
  | Read of int * int
  | Write of int * int
  | Branch of bool
  | Call of string * action list

type case = {
  cfg : Cachesim.Hierarchy.config;
  root : action list; (* run in the root context, before and around calls *)
}

let arena = 0x200000

(* Geometries down to one set and one way, and lines from narrower than a
   fetch up to wider than a code page. *)
let gen_cache ~max_sets =
  let open QCheck.Gen in
  let pow2 lo hi = map (fun k -> 1 lsl k) (int_range lo hi) in
  map3
    (fun line assoc sets -> { Cachesim.Cache.size = line * assoc * sets; assoc; line })
    (oneof [ pow2 0 7; return 8192 ])
    (pow2 0 2) (pow2 0 max_sets)

let gen_case =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (3, map (fun n -> Op (1 + n)) (int_range 0 40));
        (1, map (fun n -> Op (1000 + n)) (int_range 0 3200));
        (1, map (fun n -> Fp (1 + n)) (int_range 0 300));
        (2, map2 (fun a s -> Read (arena + a, 1 + s)) (int_range 0 4096) (int_range 0 7));
        (2, map2 (fun a s -> Write (arena + a, 1 + s)) (int_range 0 4096) (int_range 0 7));
        (1, map (fun b -> Branch b) bool);
      ]
  in
  let name = map (fun i -> Printf.sprintf "fn%d" i) (int_range 0 5) in
  let body =
    fix
      (fun self depth ->
        let action =
          if depth = 0 then leaf
          else frequency [ (4, leaf); (1, map2 (fun n b -> Call (n, b)) name (self (depth - 1))) ]
        in
        list_size (int_range 0 10) action)
      3
  in
  map3
    (fun l1i (l1d, ll) root ->
      { cfg = { Cachesim.Hierarchy.l1i; l1d; ll }; root })
    (gen_cache ~max_sets:3)
    (pair (gen_cache ~max_sets:3) (gen_cache ~max_sets:5))
    body

let rec print_actions actions =
  String.concat ";"
    (List.map
       (function
         | Op n -> Printf.sprintf "i%d" n
         | Fp n -> Printf.sprintf "f%d" n
         | Read (a, s) -> Printf.sprintf "r%d+%d" (a - arena) s
         | Write (a, s) -> Printf.sprintf "w%d+%d" (a - arena) s
         | Branch b -> if b then "b1" else "b0"
         | Call (n, body) -> Printf.sprintf "%s[%s]" n (print_actions body))
       actions)

let print_case c =
  let geo (g : Cachesim.Cache.config) = Printf.sprintf "%d/%d/%d" g.size g.assoc g.line in
  Printf.sprintf "l1i=%s l1d=%s ll=%s root=[%s]" (geo c.cfg.l1i) (geo c.cfg.l1d) (geo c.cfg.ll)
    (print_actions c.root)

let rec interp m actions =
  List.iter
    (function
      | Op n -> Dbi.Guest.iop m n
      | Fp n -> Dbi.Guest.flop m n
      | Read (a, s) -> Dbi.Guest.read m a s
      | Write (a, s) -> Dbi.Guest.write m a s
      | Branch b -> Dbi.Guest.branch m b
      | Call (name, body) -> Dbi.Guest.call m name (fun () -> interp m body))
    actions

let prop_matches_spec =
  QCheck.Test.make ~name:"line-batched fetches match per-fetch oracle" ~count:300
    (QCheck.make ~print:print_case gen_case) (fun case ->
      match Cache_spec.check ~cache_config:case.cfg (fun m -> interp m case.root) with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_reportf "%s" e)

(* Fixed cases the generator may miss: one long root-context run, and a
   function whose cursor wraps its code page mid-run, at the default
   geometry. *)
let test_fixed_cases () =
  let default = Cachesim.Hierarchy.default in
  List.iter
    (fun (label, root) ->
      match Cache_spec.check ~cache_config:default (fun m -> interp m root) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" label e)
    [
      ("root run", [ Op 5000; Read (arena, 8); Op 3 ]);
      ("page wrap", [ Call ("f", [ Op 1000; Write (arena, 4); Op 2000; Call ("g", [ Op 1030 ]); Op 7 ]) ]);
      ("line-sized runs", [ Call ("f", [ Op 16; Op 15; Op 17; Op 1; Fp 64 ]) ]);
    ]

let () =
  Alcotest.run "callgrind_batch"
    [
      ( "callgrind_batch",
        Alcotest.test_case "fixed cases" `Quick test_fixed_cases
        :: List.map QCheck_alcotest.to_alcotest [ prop_matches_spec ] );
    ]
