let escape name =
  let buf = Buffer.create (String.length name + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char buf '_'
      | c -> Buffer.add_char buf c)
    name;
  Buffer.contents buf

module P = Sigil.Profile_io

let cdfg ?(min_bytes = 1) ?(max_nodes = 64) snap ppf =
  (* keep the hottest contexts plus every ancestor, so call edges connect *)
  let ops (s : P.ctx_stats) = s.int_ops + s.fp_ops in
  let hot =
    List.stable_sort (fun a b -> compare (ops b) (ops a)) (P.active_contexts snap)
    |> List.filteri (fun i _ -> i < max_nodes)
  in
  let keep = Array.make (P.count snap) false in
  let rec keep_up ctx =
    if ctx >= 0 && not keep.(ctx) then begin
      keep.(ctx) <- true;
      keep_up (P.parent snap ctx)
    end
  in
  List.iter (fun (s : P.ctx_stats) -> keep_up s.ctx) hot;
  let kept = List.filter (fun (s : P.ctx_stats) -> keep.(s.ctx)) (P.contexts snap) in
  Format.fprintf ppf "digraph cdfg {@.";
  Format.fprintf ppf "  rankdir=TB; node [shape=box, fontsize=10];@.";
  List.iter
    (fun (s : P.ctx_stats) ->
      Format.fprintf ppf "  n%d [label=\"%s\\nops=%d calls=%d\"];@." s.ctx
        (escape (P.name snap s.ctx)) (ops s) s.calls)
    kept;
  (* call edges: bold, as in Fig 1 *)
  List.iter
    (fun (s : P.ctx_stats) ->
      let parent = P.parent snap s.ctx in
      if parent >= 0 && keep.(parent) then
        Format.fprintf ppf "  n%d -> n%d [style=bold];@." parent s.ctx)
    kept;
  (* data-dependency edges: dashed, weighted by unique bytes *)
  List.iter
    (fun (e : P.edge) ->
      if e.unique_bytes >= min_bytes && keep.(e.src) && keep.(e.dst) then
        Format.fprintf ppf "  n%d -> n%d [style=dashed, label=\"%d/%d\"];@." e.src e.dst
          e.unique_bytes e.bytes)
    (P.edges snap);
  Format.fprintf ppf "}@."

let save_cdfg ?min_bytes ?max_nodes snap path =
  Dbi.Atomic_file.write path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      cdfg ?min_bytes ?max_nodes snap ppf;
      Format.pp_print_flush ppf ())
