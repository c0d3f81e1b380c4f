type ctx_stats = Profile.fn_stats
type edge = Profile.edge

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
  let invalid fmt = Printf.ksprintf (fun m -> invalid_arg ("Profile_io.make: " ^ m)) fmt in
  let n = Array.length names.parent in
  let slots = Array.make n None in
  List.iter
    (fun (s : ctx_stats) ->
      if s.ctx < 0 || s.ctx >= n then invalid "context %d is not in the names table" s.ctx;
      if slots.(s.ctx) <> None then invalid "context %d has two records" s.ctx;
      if s.fn <> names.fn.(s.ctx) then
        invalid "context %d runs function %d, not %d" s.ctx names.fn.(s.ctx) s.fn;
      slots.(s.ctx) <- Some s)
    contexts;
  let by_ctx =
    Array.mapi
      (fun ctx s -> match s with Some s -> s | None -> invalid "context %d has no record" ctx)
      slots
  in
  (* ids grow in creation order, so ascending ids are tree order *)
  let kids = Array.make n [] in
  for ctx = n - 1 downto 1 do
    kids.(names.parent.(ctx)) <- ctx :: kids.(names.parent.(ctx))
  done;
  let rec visit acc ctx = List.fold_left visit (by_ctx.(ctx) :: acc) kids.(ctx) in
  let out_total = Array.make n 0 and out_unique = Array.make n 0 in
  let in_total = Array.make n 0 and in_unique = Array.make n 0 in
  List.iter
    (fun (e : edge) ->
      out_total.(e.src) <- out_total.(e.src) + e.bytes;
      out_unique.(e.src) <- out_unique.(e.src) + e.unique_bytes;
      in_total.(e.dst) <- in_total.(e.dst) + e.bytes;
      in_unique.(e.dst) <- in_unique.(e.dst) + e.unique_bytes)
    edges;
  {
    names;
    preorder = (if n = 0 then [] else List.rev (visit [] Dbi.Context.root));
    by_ctx;
    kids;
    edge_list = edges;
    out_total;
    out_unique;
    in_total;
    in_unique;
    costs;
    reuse;
  }

let snapshot_of_tool ?callgrind tool =
  let machine = Tool.machine tool and profile = Tool.profile tool in
  let names =
    Dbi.Names.make ~symbols:(Dbi.Machine.symbols machine) ~contexts:(Dbi.Machine.contexts machine)
  in
  (* the run is finished: the snapshot shares its records and its reuse
     accumulator, copying no counter *)
  let reuse = if (Tool.options tool).Options.reuse_mode then Some (Tool.reuse tool) else None in
  make ~names
    ~contexts:(List.init (Array.length names.parent) (Profile.stats profile))
    ~edges:(List.sort compare (Profile.edges profile))
    ~costs:(Option.map Callgrind.Tool.costs callgrind) ~reuse

let render snap =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "sigil-profile 1\n";
  Array.iteri (fun id name -> Printf.bprintf buf "S %d %s\n" id name) snap.names.Dbi.Names.symbols;
  List.iter
    (fun (s : ctx_stats) ->
      Printf.bprintf buf "C %d %d %d %d\n" s.ctx snap.names.parent.(s.ctx) s.fn s.calls;
      Printf.bprintf buf "T %d %d %d %d %d %d %d %d\n" s.ctx s.input_unique s.input_nonunique
        s.local_unique s.local_nonunique s.written s.int_ops s.fp_ops)
    snap.preorder;
  List.iter
    (fun (e : edge) -> Printf.bprintf buf "X %d %d %d %d\n" e.src e.dst e.bytes e.unique_bytes)
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

let active_contexts snap = List.filter Profile.active (Array.to_list snap.by_ctx)
let parent snap ctx = snap.names.parent.(ctx)
let edges snap = snap.edge_list
let children snap ctx = snap.kids.(ctx)
let output_bytes snap ctx = (snap.out_total.(ctx), snap.out_unique.(ctx))
let input_bytes snap ctx = (snap.in_total.(ctx), snap.in_unique.(ctx))

let totals snap = Profile.read_totals snap.preorder
