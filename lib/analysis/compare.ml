type status = [ `Changed | `Added | `Removed | `Same ]

type delta = {
  key : string;
  before : int;
  after : int;
  unique_before : int;
  unique_after : int;
  status : status;
}

type t = { paths : delta list; edges : delta list }

let add table key (n, unique) =
  let n0, u0 = Option.value ~default:(0, 0) (Hashtbl.find_opt table key) in
  Hashtbl.replace table key (n0 + n, u0 + unique)

(* Summing into key-indexed tables is commutative, so the aggregate of a
   snapshot list is independent of list order — shards produced by the
   domain-parallel suite runner can be diffed without sorting them first.
   Recursion can revisit a path, and so an edge key: both accumulate. *)
let index snapshots =
  let paths = Hashtbl.create 64 and edges = Hashtbl.create 64 in
  List.iter
    (fun snap ->
      let path = Sigil.Profile_io.path snap in
      List.iter
        (fun (s : Sigil.Profile_io.ctx_stats) ->
          add paths (path s.ctx) (s.int_ops + s.fp_ops, s.input_unique))
        (Sigil.Profile_io.contexts snap);
      List.iter
        (fun (e : Sigil.Profile_io.edge) ->
          add edges (path e.src ^ " -> " ^ path e.dst) (e.bytes, e.unique_bytes))
        (Sigil.Profile_io.edges snap))
    snapshots;
  (paths, edges)

let diff_indexed b a =
  let keys = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) b;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) a;
  let rows =
    Hashtbl.fold
      (fun key () acc ->
        let before, unique_before = Option.value ~default:(0, 0) (Hashtbl.find_opt b key) in
        let after, unique_after = Option.value ~default:(0, 0) (Hashtbl.find_opt a key) in
        let status =
          match (Hashtbl.mem b key, Hashtbl.mem a key) with
          | false, true -> `Added
          | true, false -> `Removed
          | true, true | false, false ->
            if before = after && unique_before = unique_after then `Same else `Changed
        in
        { key; before; after; unique_before; unique_after; status } :: acc)
      keys []
  in
  List.sort
    (fun x y ->
      match compare (abs (y.after - y.before)) (abs (x.after - x.before)) with
      | 0 -> compare x.key y.key
      | c -> c)
    rows

let diff_many ~before ~after =
  let b_paths, b_edges = index before and a_paths, a_edges = index after in
  { paths = diff_indexed b_paths a_paths; edges = diff_indexed b_edges a_edges }

let changed t =
  let keep = List.filter (fun d -> d.status <> `Same) in
  { paths = keep t.paths; edges = keep t.edges }

let is_empty t = t.paths = [] && t.edges = []

let status_string = function
  | `Changed -> "~"
  | `Added -> "+"
  | `Removed -> "-"
  | `Same -> "="

let pp_rows ~limit ppf (n, unique, what) rows =
  if rows <> [] then begin
    Format.fprintf ppf "%2s %12s %12s %10s %10s  %s@." "" (n ^ "-before") (n ^ "-after")
      (unique ^ "-b") (unique ^ "-a") what;
    List.iteri
      (fun i d ->
        if i < limit then
          Format.fprintf ppf "%2s %12d %12d %10d %10d  %s@." (status_string d.status) d.before
            d.after d.unique_before d.unique_after d.key)
      rows
  end

let pp ?(limit = 25) ppf t =
  pp_rows ~limit ppf ("ops", "uniq-in", "path") t.paths;
  if t.paths <> [] && t.edges <> [] then Format.fprintf ppf "@.";
  pp_rows ~limit ppf ("bytes", "uniq", "edge") t.edges
