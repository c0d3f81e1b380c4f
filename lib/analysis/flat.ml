type row = {
  name : string;
  contexts : int;
  calls : int;
  int_ops : int;
  fp_ops : int;
  input_unique : int;
  input_total : int;
  local_unique : int;
  local_total : int;
  written : int;
}

module P = Sigil.Profile_io

let rows snap =
  let table : (string, row) Hashtbl.t = Hashtbl.create 64 in
  let merge name f =
    let cur =
      match Hashtbl.find_opt table name with
      | Some r -> r
      | None ->
        {
          name;
          contexts = 0;
          calls = 0;
          int_ops = 0;
          fp_ops = 0;
          input_unique = 0;
          input_total = 0;
          local_unique = 0;
          local_total = 0;
          written = 0;
        }
    in
    Hashtbl.replace table name (f cur)
  in
  List.iter
    (fun (s : P.ctx_stats) ->
      if s.ctx <> Dbi.Context.root then
        merge (P.name snap s.ctx) (fun r ->
            {
              r with
              contexts = r.contexts + 1;
              calls = r.calls + s.calls;
              int_ops = r.int_ops + s.int_ops;
              fp_ops = r.fp_ops + s.fp_ops;
              local_unique = r.local_unique + s.local_unique;
              local_total = r.local_total + s.local_unique + s.local_nonunique;
              written = r.written + s.written;
            }))
    (P.active_contexts snap);
  (* edges: same-function pairs collapse into local traffic; the rest is
     input for the consumer's function *)
  List.iter
    (fun (e : P.edge) ->
      if e.dst <> Dbi.Context.root then begin
        let dst_name = P.name snap e.dst in
        let src_name = if e.src = Dbi.Context.root then "<input>" else P.name snap e.src in
        if src_name = dst_name then
          merge dst_name (fun r ->
              {
                r with
                local_unique = r.local_unique + e.unique_bytes;
                local_total = r.local_total + e.bytes;
              })
        else
          merge dst_name (fun r ->
              {
                r with
                input_unique = r.input_unique + e.unique_bytes;
                input_total = r.input_total + e.bytes;
              })
      end)
    (P.edges snap);
  let all = Hashtbl.fold (fun _ r acc -> r :: acc) table [] in
  List.sort (fun a b -> compare (b.int_ops + b.fp_ops) (a.int_ops + a.fp_ops)) all

let pp ?(limit = 25) ppf snap =
  Format.fprintf ppf "%10s %8s %5s %11s %11s %10s  %s@." "ops" "calls" "ctxs" "in-uniq/tot"
    "local-u/tot" "written" "function";
  List.iteri
    (fun i row ->
      if i < limit then
        Format.fprintf ppf "%10d %8d %5d %5d/%-5d %5d/%-5d %10d  %s@."
          (row.int_ops + row.fp_ops) row.calls row.contexts row.input_unique row.input_total
          row.local_unique row.local_total row.written row.name)
    (rows snap)

let calltree ?(max_depth = 6) ppf snap =
  let incl_ops = Array.make (P.count snap) 0 in
  let rec fill ctx =
    let s = P.stats snap ctx in
    let own = s.int_ops + s.fp_ops in
    let total = List.fold_left (fun acc k -> acc + fill k) own (P.children snap ctx) in
    incl_ops.(ctx) <- total;
    total
  in
  ignore (fill Dbi.Context.root);
  let rec walk depth ctx =
    if depth <= max_depth then begin
      let s = P.stats snap ctx in
      let _, out_unique = P.output_bytes snap ctx in
      Format.fprintf ppf "%s%s  incl-ops=%d calls=%d in-uniq=%d out-uniq=%d@."
        (String.make (2 * depth) ' ')
        (P.name snap ctx) incl_ops.(ctx) s.calls s.input_unique out_unique;
      List.iter (walk (depth + 1)) (P.children snap ctx)
    end
  in
  walk 0 Dbi.Context.root
