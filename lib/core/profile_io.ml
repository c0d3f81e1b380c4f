type ctx_stats = {
  ctx : Dbi.Context.id;
  parent : Dbi.Context.id;
  fn : int;
  calls : int;
  input_unique : int;
  input_nonunique : int;
  local_unique : int;
  local_nonunique : int;
  written : int;
  int_ops : int;
  fp_ops : int;
}

type edge = {
  src : Dbi.Context.id;
  dst : Dbi.Context.id;
  bytes : int;
  unique_bytes : int;
}

type snapshot = {
  names : string array; (* by function id *)
  by_ctx : (Dbi.Context.id, ctx_stats) Hashtbl.t;
  order : Dbi.Context.id list; (* preorder *)
  edge_list : edge list;
}

let make ~names ~contexts ~edges =
  let by_ctx = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_ctx s.ctx s) contexts;
  { names; by_ctx; order = List.map (fun s -> s.ctx) contexts; edge_list = edges }

let snapshot_of_tool tool =
  let machine = Tool.machine tool in
  let profile = Tool.profile tool in
  let contexts = Dbi.Machine.contexts machine in
  let symbols = Dbi.Machine.symbols machine in
  let names = Array.make (Dbi.Symbol.count symbols) "" in
  Dbi.Symbol.iter symbols (fun id name -> names.(id) <- name);
  let rec visit acc ctx =
    let s = Profile.stats profile ctx in
    let parent = match Dbi.Context.parent contexts ctx with Some p -> p | None -> -1 in
    let fn = if ctx = Dbi.Context.root then -1 else Dbi.Context.fn contexts ctx in
    let stats =
      {
        ctx;
        parent;
        fn;
        calls = s.Profile.calls;
        input_unique = s.Profile.input_unique;
        input_nonunique = s.Profile.input_nonunique;
        local_unique = s.Profile.local_unique;
        local_nonunique = s.Profile.local_nonunique;
        written = s.Profile.written;
        int_ops = s.Profile.int_ops;
        fp_ops = s.Profile.fp_ops;
      }
    in
    List.fold_left visit (stats :: acc) (Dbi.Context.children contexts ctx)
  in
  let edges =
    List.map
      (fun (e : Profile.edge) ->
        {
          src = e.Profile.src;
          dst = e.Profile.dst;
          bytes = e.Profile.bytes;
          unique_bytes = e.Profile.unique_bytes;
        })
      (Profile.edges profile)
  in
  make ~names ~contexts:(List.rev (visit [] Dbi.Context.root)) ~edges:(List.sort compare edges)

let render snap =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "sigil-profile 1\n";
  Array.iteri (fun id name -> Printf.bprintf buf "S %d %s\n" id name) snap.names;
  List.iter
    (fun ctx ->
      let s = Hashtbl.find snap.by_ctx ctx in
      Printf.bprintf buf "C %d %d %d %d\n" s.ctx s.parent s.fn s.calls;
      Printf.bprintf buf "T %d %d %d %d %d %d %d %d\n" s.ctx s.input_unique s.input_nonunique
        s.local_unique s.local_nonunique s.written s.int_ops s.fp_ops)
    snap.order;
  List.iter
    (fun e -> Printf.bprintf buf "X %d %d %d %d\n" e.src e.dst e.bytes e.unique_bytes)
    snap.edge_list;
  Buffer.contents buf

let to_string tool = render (snapshot_of_tool tool)
let names snap = snap.names

let fn_name snap fn =
  if fn < 0 then "<root>"
  else if fn < Array.length snap.names then snap.names.(fn)
  else "?" ^ string_of_int fn

let stats snap ctx =
  match Hashtbl.find_opt snap.by_ctx ctx with
  | Some s -> s
  | None -> invalid_arg "Profile_io.stats: unknown context"

let path snap ctx =
  if ctx = Dbi.Context.root then "<root>"
  else begin
    let rec collect acc ctx =
      if ctx = Dbi.Context.root || ctx < 0 then acc
      else
        let s = stats snap ctx in
        collect (fn_name snap s.fn :: acc) s.parent
    in
    String.concat "/" (collect [] ctx)
  end

let contexts snap = List.map (stats snap) snap.order
let edges snap = snap.edge_list

let children snap ctx =
  List.filter_map
    (fun c ->
      let s = stats snap c in
      if s.parent = ctx && c <> Dbi.Context.root then Some c else None)
    snap.order

let totals snap =
  List.fold_left
    (fun (unique, total) s ->
      let u = s.input_unique + s.local_unique in
      let n = s.input_nonunique + s.local_nonunique in
      (unique + u, total + u + n))
    (0, 0) (contexts snap)
