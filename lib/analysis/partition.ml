type candidate = {
  ctx : Dbi.Context.id;
  name : string;
  path : string;
  breakeven : float;
  coverage : float;
  incl_cycles : int;
  input_unique : int;
  output_unique : int;
  incl_ops : int;
}

type trimmed = {
  selected : candidate list;
  coverage : float;
}

let default_bus_bytes_per_cycle = 8.0

let breakeven ?(bus_bytes_per_cycle = default_bus_bytes_per_cycle) cdfg ctx =
  let n = Cdfg.node cdfg ctx in
  let t_sw = float_of_int n.Cdfg.incl_cycles in
  let t_comm =
    float_of_int (n.Cdfg.incl_input_unique + n.Cdfg.incl_output_unique) /. bus_bytes_per_cycle
  in
  if t_sw <= 0.0 || t_comm >= t_sw then infinity else t_sw /. (t_sw -. t_comm)

let is_syscall name = Dbi.Machine.is_syscall_fn name

let candidate_of ?(bus_bytes_per_cycle = default_bus_bytes_per_cycle) cdfg total ctx =
  let n = Cdfg.node cdfg ctx in
  {
    ctx;
    name = n.Cdfg.name;
    path = n.Cdfg.path;
    breakeven = breakeven ~bus_bytes_per_cycle cdfg ctx;
    coverage = float_of_int n.Cdfg.incl_cycles /. float_of_int (max 1 total);
    incl_cycles = n.Cdfg.incl_cycles;
    input_unique = n.Cdfg.incl_input_unique;
    output_unique = n.Cdfg.incl_output_unique;
    incl_ops = n.Cdfg.incl_ops;
  }

(* A node merges when no strictly deeper cut beats its own breakeven:
   best_inside(v) = min over descendants d of breakeven(d). Merging at the
   highest such node maximizes coverage (Amdahl) while keeping the least
   breakeven at the bottom of each branch.

   "Useful functions" constraint: a merged box must be a plausible
   accelerator, not the whole program wearing a box. A non-leaf node
   merges only when its sub-tree is at most [max_coverage] of the program;
   leaves (single hot functions like fluidanimate's ComputeForces) are
   exempt. Without this, top-level drivers whose I/O happens inside their
   own sub-tree always win with breakeven 1.0. *)
let trim ?(bus_bytes_per_cycle = default_bus_bytes_per_cycle) ?(max_coverage = 0.5) cdfg =
  let total = Cdfg.total_cycles cdfg in
  let never_merge n = n.Cdfg.ctx = Dbi.Context.root || n.Cdfg.name = "main" || is_syscall n.Cdfg.name in
  let box_allowed n =
    n.Cdfg.children = []
    || float_of_int n.Cdfg.incl_cycles <= max_coverage *. float_of_int (max 1 total)
  in
  (* bottom-up: returns the best breakeven anywhere inside the subtree (own
     included) and the selected leaves of the trimmed subtree, in preorder *)
  let rec visit ctx =
    let n = Cdfg.node cdfg ctx in
    let kid_results = List.map visit n.Cdfg.children in
    let own =
      if never_merge n || not (box_allowed n) then infinity
      else breakeven ~bus_bytes_per_cycle cdfg ctx
    in
    let best_inside =
      List.fold_left (fun acc (best, _) -> min acc best) infinity kid_results
    in
    let selected =
      if (not (never_merge n)) && own <= best_inside && own < infinity then
        [ candidate_of ~bus_bytes_per_cycle cdfg total ctx ]
      else List.concat_map snd kid_results
    in
    (min own best_inside, selected)
  in
  let _, selected = visit Dbi.Context.root in
  let coverage =
    List.fold_left (fun acc (c : candidate) -> acc +. c.coverage) 0.0 selected
  in
  { selected; coverage }

let rank trimmed =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt by_name c.name with
      | Some best when best.breakeven <= c.breakeven -> ()
      | Some _ | None -> Hashtbl.replace by_name c.name c)
    trimmed.selected;
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) by_name [] in
  List.sort
    (fun a b ->
      match compare a.breakeven b.breakeven with
      | 0 -> compare a.name b.name
      | c -> c)
    all

let top n ranked =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take n ranked

let bottom n ranked = top n (List.rev ranked)
