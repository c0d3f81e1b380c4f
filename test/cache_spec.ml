(* An executable spec of Callgrind's cache model and of how Callgrind
   charges it, written longhand from the definitions: LRU stack distance
   (Mattson, Gecsei, Slutz and Traiger, "Evaluation techniques for storage
   hierarchies", IBM Systems Journal 1970), the line and set geometry of
   cache.mli, the L1-to-LL forwarding of hierarchy.mli, and one
   instruction fetch per retired operation. It is a tool of its own, slow
   on purpose: a list per set, one fetch at a time, no line batching. It
   shares no code with [Cachesim.Cache], [Cachesim.Hierarchy] or
   [Callgrind.Tool], so a wrong LRU update, set index or line walk in the
   model cannot fail both sides the same way. [check] runs a guest under
   the real Callgrind tool and the spec at once and compares every
   context's cost. The branch predictor is taken from [Cachesim.Branch]:
   it is not what this spec checks. *)

(* {2 One cache} *)

(* Per set, the LRU stack of the line tags it has seen, most recent
   first. An access's stack distance is the number of other lines of its
   set touched since its own line was last touched (its position in the
   stack); an A-way LRU cache holds exactly the lines at distance below A.
   Every distance of A or more is a miss alike, so a stack keeps its
   first A tags only. *)
type cache = {
  line_size : int;
  sets : int;
  assoc : int;
  stacks : int list array; (* by set index *)
}

let cache (g : Cachesim.Cache.config) =
  let sets = g.size / (g.assoc * g.line) in
  { line_size = g.line; sets; assoc = g.assoc; stacks = Array.make sets [] }

(* The position of [tag] in [stack], or [None] when the set has not seen
   it among its last A lines (an infinite distance). *)
let distance tag stack =
  let rec go d = function
    | [] -> None
    | x :: _ when x = tag -> Some d
    | _ :: rest -> go (d + 1) rest
  in
  go 0 stack

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* Line [line] goes to set [line mod sets]. It hits when its distance is
   below the associativity; either way it moves to the top of its stack.
   At distance 0 the stack stays as it is. *)
let touch c line =
  let set = line mod c.sets in
  match c.stacks.(set) with
  | top :: _ when top = line -> true
  | stack ->
    let d = distance line stack in
    c.stacks.(set) <- line :: take (c.assoc - 1) (List.filter (fun x -> x <> line) stack);
    (match d with Some d -> d < c.assoc | None -> false)

(* An access of [len] bytes at [addr] touches every line one of its bytes
   falls in, lowest first, and hits only when all of them hit. *)
let access c addr len =
  let first = addr / c.line_size and last = (addr + len - 1) / c.line_size in
  let rec walk line all_hit =
    if line > last then all_hit else walk (line + 1) (touch c line && all_hit)
  in
  walk first true

(* {2 The hierarchy and Callgrind's charging} *)

type hierarchy = {
  l1i : cache;
  l1d : cache;
  ll : cache;
}

type level =
  | L1_hit
  | Ll_hit (* missed its L1, hit LL *)
  | Ll_miss

(* An access that misses its L1 goes to LL whole, same address and
   length. *)
let through h l1 addr len =
  if access l1 addr len then L1_hit else if access h.ll addr len then Ll_hit else Ll_miss

(* Code executed before main fetches from a page of its own, below the
   function code region; every other fetch comes from its function's code
   page, walked 4 bytes at a time from the start and wrapping at the page
   end. *)
let startup_code_page = 0x3FFF_FFFF_F000
let fetch_bytes = 4

type t = {
  machine : Dbi.Machine.t;
  h : hierarchy;
  predictor : Cachesim.Branch.t;
  costs : (Dbi.Context.id, Callgrind.Cost.t) Hashtbl.t;
  cursor : (Dbi.Symbol.id, int) Hashtbl.t; (* next fetch offset in the code page *)
}

let create (cfg : Cachesim.Hierarchy.config) machine =
  {
    machine;
    h = { l1i = cache cfg.l1i; l1d = cache cfg.l1d; ll = cache cfg.ll };
    predictor = Cachesim.Branch.create ();
    costs = Hashtbl.create 64;
    cursor = Hashtbl.create 64;
  }

let cost t ctx =
  match Hashtbl.find_opt t.costs ctx with
  | Some c -> c
  | None ->
    let c = Callgrind.Cost.zero () in
    Hashtbl.add t.costs ctx c;
    c

let fn_of t ctx =
  if ctx = Dbi.Context.root then None
  else Some (Dbi.Context.fn (Dbi.Machine.contexts t.machine) ctx)

(* [n] retired operations of [ctx]: [n] fetches, one after another. *)
let fetch t (c : Callgrind.Cost.t) ctx n =
  let one addr =
    c.ir <- c.ir + 1;
    match through t.h t.h.l1i addr fetch_bytes with
    | L1_hit -> ()
    | Ll_hit -> c.i1mr <- c.i1mr + 1
    | Ll_miss ->
      c.i1mr <- c.i1mr + 1;
      c.ilmr <- c.ilmr + 1
  in
  match fn_of t ctx with
  | None ->
    for _ = 1 to n do
      one startup_code_page
    done
  | Some fn ->
    let base = Dbi.Symbol.code_base (Dbi.Machine.symbols t.machine) fn in
    let off = ref (Option.value ~default:0 (Hashtbl.find_opt t.cursor fn)) in
    for _ = 1 to n do
      one (base + !off);
      off := (!off + fetch_bytes) mod Dbi.Symbol.code_page_size
    done;
    Hashtbl.replace t.cursor fn !off

let tool t : Dbi.Tool.t =
  {
    name = "callgrind-spec";
    on_enter =
      (fun ~ctx ~fn:_ ~call:_ ->
        let c = cost t ctx in
        c.calls <- c.calls + 1);
    on_leave = (fun ~ctx:_ ~fn:_ -> ());
    on_read =
      (fun ~ctx ~addr ~size ->
        let c = cost t ctx in
        fetch t c ctx 1;
        c.dr <- c.dr + 1;
        match through t.h t.h.l1d addr size with
        | L1_hit -> ()
        | Ll_hit -> c.d1mr <- c.d1mr + 1
        | Ll_miss ->
          c.d1mr <- c.d1mr + 1;
          c.dlmr <- c.dlmr + 1);
    on_write =
      (fun ~ctx ~addr ~size ->
        let c = cost t ctx in
        fetch t c ctx 1;
        c.dw <- c.dw + 1;
        match through t.h t.h.l1d addr size with
        | L1_hit -> ()
        | Ll_hit -> c.d1mw <- c.d1mw + 1
        | Ll_miss ->
          c.d1mw <- c.d1mw + 1;
          c.dlmw <- c.dlmw + 1);
    on_op =
      (fun ~ctx ~kind ~count ->
        let c = cost t ctx in
        fetch t c ctx count;
        match kind with
        | Dbi.Event.Int_op -> c.int_ops <- c.int_ops + count
        | Dbi.Event.Fp_op -> c.fp_ops <- c.fp_ops + count);
    on_branch =
      (fun ~ctx ~taken ->
        let c = cost t ctx in
        fetch t c ctx 1;
        let site =
          match fn_of t ctx with
          | None -> startup_code_page
          | Some fn -> Dbi.Symbol.code_base (Dbi.Machine.symbols t.machine) fn
        in
        c.bc <- c.bc + 1;
        if not (Cachesim.Branch.predict t.predictor site taken) then c.bcm <- c.bcm + 1);
    on_finish = (fun () -> ());
  }

(* {2 Comparison with the real tool} *)

let fields (c : Callgrind.Cost.t) =
  [
    ("Ir", c.ir); ("int_ops", c.int_ops); ("fp_ops", c.fp_ops); ("Dr", c.dr); ("Dw", c.dw);
    ("D1mr", c.d1mr); ("D1mw", c.d1mw); ("DLmr", c.dlmr); ("DLmw", c.dlmw); ("I1mr", c.i1mr);
    ("ILmr", c.ilmr); ("Bc", c.bc); ("Bcm", c.bcm); ("calls", c.calls);
  ]

(* [check ?call_overhead ?cache_config guest] runs [guest] under the real
   Callgrind tool (at [cache_config], default {!Cachesim.Hierarchy.default})
   and the spec side by side, then compares all 14 cost fields of every
   context. [Ok] holds the tool, [Error] names the first context and field
   that differ. *)
let check ?call_overhead ?(cache_config = Cachesim.Hierarchy.default) guest =
  let real = ref None and spec = ref None in
  let r =
    Dbi.Runner.run ?call_overhead
      ~tools:
        [
          (fun m ->
            let x = Callgrind.Tool.create ~cache_config m in
            real := Some x;
            Callgrind.Tool.tool x);
          (fun m ->
            let x = create cache_config m in
            spec := Some x;
            tool x);
        ]
      guest
  in
  let tool = Option.get !real and t = Option.get !spec in
  let m = r.Dbi.Runner.machine in
  let first = ref None in
  Dbi.Context.iter (Dbi.Machine.contexts m) (fun ctx ->
      if !first = None then
        List.iter2
          (fun (name, got) (_, want) ->
            if !first = None && got <> want then
              first :=
                Some
                  (Printf.sprintf "%s of %s: tool %d, spec %d" name
                     (Dbi.Names.path
                        (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m)
                           ~contexts:(Dbi.Machine.contexts m))
                        ctx)
                     got want))
          (fields (Callgrind.Tool.cost tool ctx))
          (fields (cost t ctx)));
  match !first with
  | None -> Ok tool
  | Some e -> Error e
