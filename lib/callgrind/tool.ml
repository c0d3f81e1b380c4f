type t = {
  machine : Dbi.Machine.t;
  hierarchy : Cachesim.Hierarchy.t;
  predictor : Cachesim.Branch.t;
  fetch_block : int; (* aligned code bytes that share one L1I line *)
  mutable costs : Cost.t option array; (* indexed by context id *)
  mutable code_cursor : int array; (* per function: next fetch offset *)
}

let fetch_size = 4

let create ?(cache_config = Cachesim.Hierarchy.default) machine =
  {
    machine;
    hierarchy = Cachesim.Hierarchy.create cache_config;
    predictor = Cachesim.Branch.create ();
    (* Code pages are page-aligned. With lines up to a page, a wrap at the
       page end starts a new line; a wider line holds the whole page. *)
    fetch_block = cache_config.Cachesim.Hierarchy.l1i.line;
    costs = Array.make 256 None;
    code_cursor = Array.make 256 0;
  }

let ensure_cost t ctx =
  let len = Array.length t.costs in
  if ctx >= len then begin
    let grown = Array.make (max (2 * len) (ctx + 1)) None in
    Array.blit t.costs 0 grown 0 len;
    t.costs <- grown
  end;
  match t.costs.(ctx) with
  | Some c -> c
  | None ->
    let c = Cost.zero () in
    t.costs.(ctx) <- Some c;
    c

(* Code executed before main (process startup) fetches from a synthetic
   page below the function code region. *)
let startup_code_page = 0x3FFF_FFFF_F000

let ctx_fn t ctx =
  if ctx = Dbi.Context.root then -1 else Dbi.Context.fn (Dbi.Machine.contexts t.machine) ctx

(* [n] fetches of one L1I line, starting at [addr]: the first is simulated,
   the rest are hits on the line it left MRU. *)
let fetch_line t (c : Cost.t) addr n =
  let level = Cachesim.Hierarchy.fetch t.hierarchy addr fetch_size in
  if n > 1 then Cachesim.Hierarchy.fetch_hits t.hierarchy (n - 1);
  c.ir <- c.ir + n;
  if level > 0 then begin
    c.i1mr <- c.i1mr + 1;
    if level > 1 then c.ilmr <- c.ilmr + 1
  end

(* Instruction fetches walk each function's synthetic code page cyclically,
   so I-cache behaviour scales with how many distinct functions are hot.
   [count] sequential fetches are simulated once per line they cross;
   nothing else touches the caches meanwhile, so every count is the same
   as fetching one by one. The machine only reports runs with [count > 0]. *)
let fetch_run t c ctx count =
  match ctx_fn t ctx with
  | -1 when t.fetch_block >= fetch_size -> fetch_line t c startup_code_page count
  | -1 ->
    for _ = 1 to count do
      fetch_line t c startup_code_page 1
    done
  | fn ->
    let len = Array.length t.code_cursor in
    if fn >= len then begin
      let grown = Array.make (max (2 * len) (fn + 1)) 0 in
      Array.blit t.code_cursor 0 grown 0 len;
      t.code_cursor <- grown
    end;
    let base = Dbi.Symbol.code_base (Dbi.Machine.symbols t.machine) fn in
    let block = t.fetch_block in
    let off = ref t.code_cursor.(fn) in
    let remaining = ref count in
    while !remaining > 0 do
      (* lines narrower than a fetch give one fetch per block *)
      let n = min !remaining (max 1 ((block - (!off land (block - 1))) / fetch_size)) in
      fetch_line t c (base + !off) n;
      off := (!off + (n * fetch_size)) land (Dbi.Symbol.code_page_size - 1);
      remaining := !remaining - n
    done;
    t.code_cursor.(fn) <- !off

let tool t : Dbi.Tool.t =
  {
    name = "callgrind";
    on_enter =
      (fun ~ctx ~fn:_ ~call:_ ->
        let c = ensure_cost t ctx in
        c.calls <- c.calls + 1);
    on_leave = (fun ~ctx:_ ~fn:_ -> ());
    on_read =
      (fun ~ctx ~addr ~size ->
        let c = ensure_cost t ctx in
        fetch_run t c ctx 1;
        let level = Cachesim.Hierarchy.data_read t.hierarchy addr size in
        c.dr <- c.dr + 1;
        if level > 0 then begin
          c.d1mr <- c.d1mr + 1;
          if level > 1 then c.dlmr <- c.dlmr + 1
        end);
    on_write =
      (fun ~ctx ~addr ~size ->
        let c = ensure_cost t ctx in
        fetch_run t c ctx 1;
        let level = Cachesim.Hierarchy.data_write t.hierarchy addr size in
        c.dw <- c.dw + 1;
        if level > 0 then begin
          c.d1mw <- c.d1mw + 1;
          if level > 1 then c.dlmw <- c.dlmw + 1
        end);
    on_op =
      (fun ~ctx ~kind ~count ->
        let c = ensure_cost t ctx in
        fetch_run t c ctx count;
        match kind with
        | Dbi.Event.Int_op -> c.int_ops <- c.int_ops + count
        | Dbi.Event.Fp_op -> c.fp_ops <- c.fp_ops + count);
    on_branch =
      (fun ~ctx ~taken ->
        let c = ensure_cost t ctx in
        fetch_run t c ctx 1;
        let site =
          match ctx_fn t ctx with
          | -1 -> startup_code_page
          | fn -> Dbi.Symbol.code_base (Dbi.Machine.symbols t.machine) fn
        in
        let correct = Cachesim.Branch.predict t.predictor site taken in
        c.bc <- c.bc + 1;
        if not correct then c.bcm <- c.bcm + 1);
    on_finish = (fun () -> ());
  }

let zero_shared = Cost.zero ()

let cost t ctx =
  if ctx < Array.length t.costs then
    match t.costs.(ctx) with
    | Some c -> c
    | None -> zero_shared
  else zero_shared

let inclusive_cost t ctx =
  let contexts = Dbi.Machine.contexts t.machine in
  let acc = Cost.zero () in
  let rec visit ctx =
    Cost.add ~into:acc (cost t ctx);
    List.iter visit (Dbi.Context.children contexts ctx)
  in
  visit ctx;
  acc

let total t = inclusive_cost t Dbi.Context.root

let machine t = t.machine
let hierarchy t = t.hierarchy
