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
  names : (int, string) Hashtbl.t;
  by_ctx : (Dbi.Context.id, ctx_stats) Hashtbl.t;
  order : Dbi.Context.id list; (* preorder *)
  edge_list : edge list;
}

let magic = "sigil-profile 1"

let snapshot_of_tool tool =
  let machine = Tool.machine tool in
  let profile = Tool.profile tool in
  let contexts = Dbi.Machine.contexts machine in
  let symbols = Dbi.Machine.symbols machine in
  let names = Hashtbl.create 64 in
  Dbi.Symbol.iter symbols (fun id name -> Hashtbl.replace names id name);
  let by_ctx = Hashtbl.create 256 in
  let order = ref [] in
  let rec visit ctx =
    let s = Profile.stats profile ctx in
    let parent = match Dbi.Context.parent contexts ctx with Some p -> p | None -> -1 in
    let fn = if ctx = Dbi.Context.root then -1 else Dbi.Context.fn contexts ctx in
    Hashtbl.replace by_ctx ctx
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
      };
    order := ctx :: !order;
    List.iter visit (Dbi.Context.children contexts ctx)
  in
  visit Dbi.Context.root;
  let edge_list =
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
  let edge_list = List.sort compare edge_list in
  { names; by_ctx; order = List.rev !order; edge_list }

let render snap =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (magic ^ "\n");
  let symbol_ids = Hashtbl.fold (fun id _ acc -> id :: acc) snap.names [] in
  List.iter
    (fun id -> Printf.bprintf buf "S %d %s\n" id (Hashtbl.find snap.names id))
    (List.sort compare symbol_ids);
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

let save tool path =
  let text = to_string tool in
  Dbi.Atomic_file.write path (fun oc -> output_string oc text)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fail line = failwith ("Profile_io: malformed line: " ^ line) in
      (match input_line ic with
      | header when header = magic -> ()
      | header -> failwith ("Profile_io: unsupported header: " ^ header)
      | exception End_of_file -> failwith "Profile_io: empty file");
      let names = Hashtbl.create 64 in
      let by_ctx = Hashtbl.create 256 in
      let order = ref [] in
      let edges = ref [] in
      let ints line rest = List.map (fun s -> match int_of_string_opt s with Some v -> v | None -> fail line) rest in
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> ()
        | line ->
          (if String.trim line <> "" then
             match String.split_on_char ' ' line with
             | "S" :: id :: name_parts ->
               let id = match int_of_string_opt id with Some v -> v | None -> fail line in
               Hashtbl.replace names id (String.concat " " name_parts)
             | "C" :: rest -> (
               match ints line rest with
               | [ ctx; parent; fn; calls ] ->
                 Hashtbl.replace by_ctx ctx
                   {
                     ctx;
                     parent;
                     fn;
                     calls;
                     input_unique = 0;
                     input_nonunique = 0;
                     local_unique = 0;
                     local_nonunique = 0;
                     written = 0;
                     int_ops = 0;
                     fp_ops = 0;
                   };
                 order := ctx :: !order
               | _ -> fail line)
             | "T" :: rest -> (
               match ints line rest with
               | [ ctx; iu; inn; lu; ln; written; iops; fops ] -> (
                 match Hashtbl.find_opt by_ctx ctx with
                 | None -> fail line
                 | Some s ->
                   Hashtbl.replace by_ctx ctx
                     {
                       s with
                       input_unique = iu;
                       input_nonunique = inn;
                       local_unique = lu;
                       local_nonunique = ln;
                       written;
                       int_ops = iops;
                       fp_ops = fops;
                     })
               | _ -> fail line)
             | "X" :: rest -> (
               match ints line rest with
               | [ src; dst; bytes; unique_bytes ] ->
                 edges := { src; dst; bytes; unique_bytes } :: !edges
               | _ -> fail line)
             | _ -> fail line);
          loop ()
      in
      loop ();
      { names; by_ctx; order = List.rev !order; edge_list = List.rev !edges })

let fn_name snap fn =
  if fn < 0 then "<root>"
  else match Hashtbl.find_opt snap.names fn with Some n -> n | None -> "?" ^ string_of_int fn

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
