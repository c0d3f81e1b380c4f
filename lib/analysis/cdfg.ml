type node = {
  ctx : Dbi.Context.id;
  name : string;
  path : string;
  children : Dbi.Context.id list;
  self_ops : int;
  self_calls : int;
  incl_ops : int;
  incl_cycles : int;
  incl_input_unique : int;
  incl_input_total : int;
  incl_output_unique : int;
  incl_output_total : int;
}

type t = {
  nodes : node array; (* by context id *)
  preorder : Dbi.Context.id list;
}

module P = Sigil.Profile_io

let of_snapshot snap =
  let n = P.count snap in
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let clock = ref 0 in
  let preorder = ref [] in
  let rec dfs ctx =
    incr clock;
    tin.(ctx) <- !clock;
    preorder := ctx :: !preorder;
    List.iter dfs (P.children snap ctx);
    incr clock;
    tout.(ctx) <- !clock
  in
  dfs Dbi.Context.root;
  let preorder = List.rev !preorder in
  (* inclusive ops and cycles by post-order accumulation *)
  let self_ops ctx =
    let s = P.stats snap ctx in
    s.int_ops + s.fp_ops
  in
  let inclusive self =
    let incl = Array.make n 0 in
    let rec accumulate ctx =
      let kids = P.children snap ctx in
      List.iter accumulate kids;
      incl.(ctx) <- self ctx + List.fold_left (fun acc k -> acc + incl.(k)) 0 kids
    in
    accumulate Dbi.Context.root;
    incl
  in
  let incl_ops = inclusive self_ops in
  let incl_cycles =
    match P.costs snap with
    | Some c ->
      let cost = Callgrind.Output.cost c in
      inclusive (fun ctx -> Callgrind.Estimate.cycles (cost ctx))
    | None -> incl_ops
  in
  (* Crossing-edge accumulation: an edge s->d contributes input to every
     box (ancestor chain of d) that does not also contain s — i.e. the
     nodes strictly below the LCA on d's chain — and output symmetrically
     on s's chain. Producer = root means program input and charges d's
     whole chain. *)
  let in_u = Array.make n 0 and in_t = Array.make n 0 in
  let out_u = Array.make n 0 and out_t = Array.make n 0 in
  let ancestor a b = tin.(a) <= tin.(b) && tout.(b) <= tout.(a) in
  List.iter
    (fun (e : P.edge) ->
      let rec charge_up arr_u arr_t v stop_test =
        if v <> Dbi.Context.root && not (stop_test v) then begin
          arr_u.(v) <- arr_u.(v) + e.unique_bytes;
          arr_t.(v) <- arr_t.(v) + e.bytes;
          charge_up arr_u arr_t (P.parent snap v) stop_test
        end
      in
      charge_up in_u in_t e.dst (fun v -> ancestor v e.src);
      charge_up out_u out_t e.src (fun v -> ancestor v e.dst))
    (P.edges snap);
  let nodes =
    Array.init n (fun ctx ->
        {
          ctx;
          name = P.name snap ctx;
          path = P.path snap ctx;
          children = P.children snap ctx;
          self_ops = self_ops ctx;
          self_calls = (P.stats snap ctx).calls;
          incl_ops = incl_ops.(ctx);
          incl_cycles = incl_cycles.(ctx);
          incl_input_unique = in_u.(ctx);
          incl_input_total = in_t.(ctx);
          incl_output_unique = out_u.(ctx);
          incl_output_total = out_t.(ctx);
        })
  in
  { nodes; preorder }

let build ?callgrind tool = of_snapshot (P.snapshot_of_tool ?callgrind tool)

let node t ctx =
  if ctx < 0 || ctx >= Array.length t.nodes then invalid_arg "Cdfg.node: unknown context";
  t.nodes.(ctx)

let contexts t = t.preorder
let root t = t.nodes.(Dbi.Context.root)
let total_cycles t = (root t).incl_cycles
