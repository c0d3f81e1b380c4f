let escape name =
  let buf = Buffer.create (String.length name + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char buf '_'
      | c -> Buffer.add_char buf c)
    name;
  Buffer.contents buf

let fn_label tool ctx =
  let machine = Sigil.Tool.machine tool in
  if ctx = Dbi.Context.root then "<root>"
  else
    escape
      (Dbi.Symbol.name
         (Dbi.Machine.symbols machine)
         (Dbi.Context.fn (Dbi.Machine.contexts machine) ctx))

let cdfg ?(min_bytes = 1) ?(max_nodes = 64) tool ppf =
  let machine = Sigil.Tool.machine tool in
  let profile = Sigil.Tool.profile tool in
  let contexts = Dbi.Machine.contexts machine in
  (* keep the hottest contexts plus every ancestor, so call edges connect *)
  let hot =
    let scored =
      List.map
        (fun ctx ->
          let s = Sigil.Profile.stats profile ctx in
          (ctx, s.Sigil.Profile.int_ops + s.Sigil.Profile.fp_ops))
        (Sigil.Profile.contexts profile)
    in
    let sorted = List.sort (fun (_, a) (_, b) -> compare b a) scored in
    List.filteri (fun i _ -> i < max_nodes) sorted |> List.map fst
  in
  let keep = Hashtbl.create 64 in
  let rec keep_up ctx =
    if not (Hashtbl.mem keep ctx) then begin
      Hashtbl.replace keep ctx ();
      match Dbi.Context.parent contexts ctx with
      | Some p -> keep_up p
      | None -> ()
    end
  in
  List.iter keep_up hot;
  Format.fprintf ppf "digraph cdfg {@.";
  Format.fprintf ppf "  rankdir=TB; node [shape=box, fontsize=10];@.";
  Hashtbl.iter
    (fun ctx () ->
      let s = Sigil.Profile.stats profile ctx in
      Format.fprintf ppf "  n%d [label=\"%s\\nops=%d calls=%d\"];@." ctx (fn_label tool ctx)
        (s.Sigil.Profile.int_ops + s.Sigil.Profile.fp_ops)
        s.Sigil.Profile.calls)
    keep;
  (* call edges: bold, as in Fig 1 *)
  Hashtbl.iter
    (fun ctx () ->
      match Dbi.Context.parent contexts ctx with
      | Some p when Hashtbl.mem keep p ->
        Format.fprintf ppf "  n%d -> n%d [style=bold];@." p ctx
      | Some _ | None -> ())
    keep;
  (* data-dependency edges: dashed, weighted by unique bytes *)
  List.iter
    (fun (e : Sigil.Profile.edge) ->
      if
        e.Sigil.Profile.unique_bytes >= min_bytes
        && Hashtbl.mem keep e.Sigil.Profile.src
        && Hashtbl.mem keep e.Sigil.Profile.dst
      then
        Format.fprintf ppf "  n%d -> n%d [style=dashed, label=\"%d/%d\"];@." e.Sigil.Profile.src
          e.Sigil.Profile.dst e.Sigil.Profile.unique_bytes e.Sigil.Profile.bytes)
    (Sigil.Profile.edges profile);
  Format.fprintf ppf "}@."

let critical_path tool critpath ppf =
  let nodes = Critpath.critical_path critpath in
  Format.fprintf ppf "digraph critical_path {@.";
  Format.fprintf ppf "  rankdir=LR; node [shape=box, style=filled, fillcolor=gray85, fontsize=10];@.";
  List.iteri
    (fun i (n : Critpath.node) ->
      Format.fprintf ppf "  n%d [label=\"%s #%d\\nself=%d incl=%d\"];@." i
        (fn_label tool n.Critpath.ctx) n.Critpath.occurrence n.Critpath.self n.Critpath.inclusive)
    nodes;
  List.iteri
    (fun i (_ : Critpath.node) ->
      if i > 0 then Format.fprintf ppf "  n%d -> n%d [style=bold];@." (i - 1) i)
    nodes;
  Format.fprintf ppf "}@."

let to_file render path =
  Dbi.Atomic_file.write path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      render ppf;
      Format.pp_print_flush ppf ())

let save_cdfg ?min_bytes ?max_nodes tool path = to_file (cdfg ?min_bytes ?max_nodes tool) path
let save_critical_path tool critpath path = to_file (critical_path tool critpath) path
