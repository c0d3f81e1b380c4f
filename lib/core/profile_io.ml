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

(* Every array is indexed by the dense context id. *)
type snapshot = {
  names : Dbi.Names.t;
  preorder : ctx_stats list;
  by_ctx : ctx_stats array;
  kids : Dbi.Context.id list array; (* in tree order *)
  edge_list : edge list;
  out_total : int array;
  out_unique : int array;
  in_total : int array;
  in_unique : int array;
  costs : Callgrind.Output.costs option;
  reuse : Reuse.t option;
}

let make ~(names : Dbi.Names.t) ~contexts ~edges ~costs ~reuse =
  let in_table s =
    if s.ctx < 0 || s.ctx >= Array.length names.parent then
      invalid_arg (Printf.sprintf "Profile_io.make: context %d is not in the names table" s.ctx);
    let parent = names.parent.(s.ctx) and fn = names.fn.(s.ctx) in
    if s.parent = parent && s.fn = fn then s else { s with parent; fn }
  in
  let contexts = List.map in_table contexts in
  let by_ctx = Array.of_list contexts in
  Array.sort (fun a b -> compare a.ctx b.ctx) by_ctx;
  Array.iteri
    (fun i s -> if s.ctx <> i then invalid_arg "Profile_io.make: context ids are not dense")
    by_ctx;
  let n = Array.length by_ctx in
  let kids = Array.make n [] in
  List.iter (fun s -> if s.parent >= 0 then kids.(s.parent) <- s.ctx :: kids.(s.parent)) contexts;
  let out_total = Array.make n 0 and out_unique = Array.make n 0 in
  let in_total = Array.make n 0 and in_unique = Array.make n 0 in
  List.iter
    (fun e ->
      out_total.(e.src) <- out_total.(e.src) + e.bytes;
      out_unique.(e.src) <- out_unique.(e.src) + e.unique_bytes;
      in_total.(e.dst) <- in_total.(e.dst) + e.bytes;
      in_unique.(e.dst) <- in_unique.(e.dst) + e.unique_bytes)
    edges;
  {
    names;
    preorder = contexts;
    by_ctx;
    kids = Array.map List.rev kids;
    edge_list = edges;
    out_total;
    out_unique;
    in_total;
    in_unique;
    costs;
    reuse;
  }

let snapshot_of_tool ?callgrind tool =
  let machine = Tool.machine tool in
  let profile = Tool.profile tool in
  let contexts = Dbi.Machine.contexts machine in
  let names = Dbi.Names.make ~symbols:(Dbi.Machine.symbols machine) ~contexts in
  let rec visit acc ctx =
    let s = Profile.stats profile ctx in
    let stats =
      {
        ctx;
        parent = names.parent.(ctx);
        fn = names.fn.(ctx);
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
  (* the accumulator is finished: the snapshot shares it, copying no histogram *)
  let reuse = if (Tool.options tool).Options.reuse_mode then Some (Tool.reuse tool) else None in
  make ~names ~contexts:(List.rev (visit [] Dbi.Context.root)) ~edges:(List.sort compare edges)
    ~costs:(Option.map Callgrind.Tool.costs callgrind) ~reuse

let render snap =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "sigil-profile 1\n";
  Array.iteri (fun id name -> Printf.bprintf buf "S %d %s\n" id name) snap.names.Dbi.Names.symbols;
  List.iter
    (fun s ->
      Printf.bprintf buf "C %d %d %d %d\n" s.ctx s.parent s.fn s.calls;
      Printf.bprintf buf "T %d %d %d %d %d %d %d %d\n" s.ctx s.input_unique s.input_nonunique
        s.local_unique s.local_nonunique s.written s.int_ops s.fp_ops)
    snap.preorder;
  List.iter
    (fun e -> Printf.bprintf buf "X %d %d %d %d\n" e.src e.dst e.bytes e.unique_bytes)
    snap.edge_list;
  Buffer.contents buf

let to_string tool = render (snapshot_of_tool tool)
let names snap = snap.names
let costs snap = snap.costs
let reuse snap = snap.reuse

let fn_name snap fn = Dbi.Names.fn_name snap.names fn
let count snap = Array.length snap.by_ctx

let stats snap ctx =
  if ctx < 0 || ctx >= count snap then invalid_arg "Profile_io.stats: unknown context";
  snap.by_ctx.(ctx)

let name snap ctx = Dbi.Names.name snap.names ctx
let path snap ctx = Dbi.Names.path snap.names ctx
let contexts snap = snap.preorder

let active s =
  List.exists
    (fun n -> n <> 0)
    [ s.calls; s.input_unique; s.input_nonunique; s.local_unique; s.local_nonunique; s.written;
      s.int_ops; s.fp_ops ]

let active_contexts snap = List.filter active (Array.to_list snap.by_ctx)
let edges snap = snap.edge_list
let children snap ctx = snap.kids.(ctx)
let output_bytes snap ctx = (snap.out_total.(ctx), snap.out_unique.(ctx))
let input_bytes snap ctx = (snap.in_total.(ctx), snap.in_unique.(ctx))

let totals snap =
  Array.fold_left
    (fun (unique, total) s ->
      let u = s.input_unique + s.local_unique in
      let n = s.input_nonunique + s.local_nonunique in
      (unique + u, total + u + n))
    (0, 0) snap.by_ctx
