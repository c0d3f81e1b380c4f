module P = Sigil.Profile_io

(* A context record (tag 1) carries a context's calls and Table I totals
   (its parent and function live in the context table); an edge record
   (tag 2) carries one producer -> consumer edge. *)
type record = Ctx of P.ctx_stats | Edge of P.edge

let encode buf r =
  List.iter (Varint.write buf)
    (match r with
    | Ctx s ->
      [ 1; s.ctx; s.calls; s.input_unique; s.input_nonunique; s.local_unique; s.local_nonunique;
        s.written; s.int_ops; s.fp_ops ]
    | Edge e -> [ 2; e.src; e.dst; e.bytes; e.unique_bytes ])

let decode b ~len ~pos =
  (* Array.init reads the fields in file order *)
  let fields n = Array.init n (fun _ -> Varint.read b ~len ~pos) in
  match (fields 1).(0) with
  | 1 ->
    let v = fields 9 in
    Ctx
      { ctx = v.(0); parent = -1; fn = -1; calls = v.(1); input_unique = v.(2);
        input_nonunique = v.(3); local_unique = v.(4); local_nonunique = v.(5); written = v.(6);
        int_ops = v.(7); fp_ops = v.(8) }
  | 2 ->
    let v = fields 4 in
    Edge { src = v.(0); dst = v.(1); bytes = v.(2); unique_bytes = v.(3) }
  | tag -> failwith (Printf.sprintf "unknown record tag %d" tag)

let save ?options snap path =
  let w = Writer.create ~kind:Frame.Profile ?options path in
  match
    List.iter (fun s -> Writer.add_record w encode (Ctx s)) (P.contexts snap);
    List.iter (fun e -> Writer.add_record w encode (Edge e)) (P.edges snap)
  with
  | () -> Writer.close_names (P.names snap) w
  | exception e ->
    Writer.discard w;
    raise e

(* Every context of the table has exactly one record, and every id a
   record names is in the table; the tree itself was checked at open. *)
let of_reader r =
  let names : Dbi.Names.t = Reader.names r in
  let seen = Array.make (Array.length names.parent) false in
  let contexts = ref [] and edges = ref [] in
  Reader.records r Frame.Profile decode (fun offset rc ->
      let known ctx =
        if ctx < 0 || ctx >= Array.length seen then
          Frame.corrupt ~offset (Printf.sprintf "context %d is not in the table" ctx)
      in
      match rc with
      | Ctx s ->
        known s.ctx;
        if seen.(s.ctx) then Frame.corrupt ~offset (Printf.sprintf "context %d recorded twice" s.ctx);
        seen.(s.ctx) <- true;
        contexts := s :: !contexts
      | Edge e ->
        known e.src;
        known e.dst;
        edges := e :: !edges);
  Array.iteri
    (fun ctx seen ->
      if not seen then
        Frame.corrupt ~offset:(Reader.data_end r) (Printf.sprintf "context %d has no record" ctx))
    seen;
  P.make ~names ~contexts:(List.rev !contexts) ~edges:(List.rev !edges)

let load path =
  let r = Reader.open_file path in
  Fun.protect ~finally:(fun () -> Reader.close r) (fun () -> of_reader r)
