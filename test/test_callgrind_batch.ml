(* Differential test for Callgrind's line-batched instruction fetches.
   The oracle below is the per-fetch Callgrind: one Hierarchy.fetch per
   retired op, charged from the returned miss level. Both tools see the
   same event stream, each with its own cache hierarchy; every context's
   cost and every cache counter must agree. *)

(* Same synthetic startup page as Callgrind.Tool. *)
let startup_code_page = 0x3FFF_FFFF_F000

module Oracle = struct
  type t = {
    machine : Dbi.Machine.t;
    h : Cachesim.Hierarchy.t;
    predictor : Cachesim.Branch.t;
    costs : (int, Callgrind.Cost.t) Hashtbl.t;
    cursor : (int, int) Hashtbl.t;
  }

  let create cfg machine =
    {
      machine;
      h = Cachesim.Hierarchy.create cfg;
      predictor = Cachesim.Branch.create ();
      costs = Hashtbl.create 16;
      cursor = Hashtbl.create 16;
    }

  let cost t ctx =
    match Hashtbl.find_opt t.costs ctx with
    | Some c -> c
    | None ->
      let c = Callgrind.Cost.zero () in
      Hashtbl.replace t.costs ctx c;
      c

  let fn_of t ctx =
    if ctx = Dbi.Context.root then None
    else Some (Dbi.Context.fn (Dbi.Machine.contexts t.machine) ctx)

  let fetch t ctx =
    let addr =
      match fn_of t ctx with
      | None -> startup_code_page
      | Some fn ->
        let off = Option.value ~default:0 (Hashtbl.find_opt t.cursor fn) in
        Hashtbl.replace t.cursor fn ((off + 4) land (Dbi.Symbol.code_page_size - 1));
        Dbi.Symbol.code_base (Dbi.Machine.symbols t.machine) fn + off
    in
    let c = cost t ctx in
    c.ir <- c.ir + 1;
    match Cachesim.Hierarchy.fetch t.h addr 4 with
    | 0 -> ()
    | 1 -> c.i1mr <- c.i1mr + 1
    | _ ->
      c.i1mr <- c.i1mr + 1;
      c.ilmr <- c.ilmr + 1

  let tool t : Dbi.Tool.t =
    {
      name = "callgrind-oracle";
      on_enter = (fun ~ctx ~fn:_ ~call:_ -> (cost t ctx).calls <- (cost t ctx).calls + 1);
      on_leave = (fun ~ctx:_ ~fn:_ -> ());
      on_read =
        (fun ~ctx ~addr ~size ->
          fetch t ctx;
          let c = cost t ctx in
          c.dr <- c.dr + 1;
          match Cachesim.Hierarchy.data_read t.h addr size with
          | 0 -> ()
          | 1 -> c.d1mr <- c.d1mr + 1
          | _ ->
            c.d1mr <- c.d1mr + 1;
            c.dlmr <- c.dlmr + 1);
      on_write =
        (fun ~ctx ~addr ~size ->
          fetch t ctx;
          let c = cost t ctx in
          c.dw <- c.dw + 1;
          match Cachesim.Hierarchy.data_write t.h addr size with
          | 0 -> ()
          | 1 -> c.d1mw <- c.d1mw + 1
          | _ ->
            c.d1mw <- c.d1mw + 1;
            c.dlmw <- c.dlmw + 1);
      on_op =
        (fun ~ctx ~kind ~count ->
          for _ = 1 to count do
            fetch t ctx
          done;
          let c = cost t ctx in
          match kind with
          | Dbi.Event.Int_op -> c.int_ops <- c.int_ops + count
          | Dbi.Event.Fp_op -> c.fp_ops <- c.fp_ops + count);
      on_branch =
        (fun ~ctx ~taken ->
          fetch t ctx;
          let site =
            match fn_of t ctx with
            | None -> startup_code_page
            | Some fn -> Dbi.Symbol.code_base (Dbi.Machine.symbols t.machine) fn
          in
          let c = cost t ctx in
          c.bc <- c.bc + 1;
          if not (Cachesim.Branch.predict t.predictor site taken) then c.bcm <- c.bcm + 1);
      on_finish = (fun () -> ());
    }
end

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

let cost_fields (c : Callgrind.Cost.t) =
  [
    c.ir; c.int_ops; c.fp_ops; c.dr; c.dw; c.d1mr; c.d1mw; c.dlmr; c.dlmw; c.i1mr; c.ilmr; c.bc;
    c.bcm; c.calls;
  ]

let cache_fields h =
  List.concat_map
    (fun c -> Cachesim.Cache.[ accesses c; misses c; lines_filled c ])
    Cachesim.Hierarchy.[ l1i h; l1d h; ll h ]

let counts_fields h =
  let c = Cachesim.Hierarchy.counts h in
  Cachesim.Hierarchy.[ c.ir; c.dr; c.dw; c.i1mr; c.d1mr; c.d1mw; c.ilmr; c.dlmr; c.dlmw ]

let agrees case =
  let batched = ref None and oracle = ref None in
  let r =
    Dbi.Runner.run
      ~tools:
        [
          (fun m ->
            let t = Callgrind.Tool.create ~cache_config:case.cfg m in
            batched := Some t;
            Callgrind.Tool.tool t);
          (fun m ->
            let t = Oracle.create case.cfg m in
            oracle := Some t;
            Oracle.tool t);
        ]
      (fun m -> interp m case.root)
  in
  let batched = Option.get !batched and oracle = Option.get !oracle in
  let ok = ref true in
  Dbi.Context.iter (Dbi.Machine.contexts r.Dbi.Runner.machine) (fun ctx ->
      if cost_fields (Callgrind.Tool.cost batched ctx) <> cost_fields (Oracle.cost oracle ctx)
      then ok := false);
  let h = Callgrind.Tool.hierarchy batched in
  !ok
  && cache_fields h = cache_fields oracle.Oracle.h
  && counts_fields h = counts_fields oracle.Oracle.h

let prop_batched_matches_per_fetch =
  QCheck.Test.make ~name:"line-batched fetches match per-fetch oracle" ~count:300
    (QCheck.make ~print:print_case gen_case) agrees

(* Fixed cases the generator may miss: one long root-context run, and a
   function whose cursor wraps its code page mid-run, at the default
   geometry. *)
let test_fixed_cases () =
  let default = Cachesim.Hierarchy.default in
  List.iter
    (fun (label, root) ->
      Alcotest.(check bool) label true (agrees { cfg = default; root }))
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
        :: List.map QCheck_alcotest.to_alcotest [ prop_batched_matches_per_fetch ] );
    ]
