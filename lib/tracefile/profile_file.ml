module P = Sigil.Profile_io
module R = Sigil.Reuse

(* A context record (tag 1) carries a context's calls and Table I totals
   (its parent and function live in the context table); an edge record
   (tag 2) carries one producer -> consumer edge. Callgrind's costs are
   their column names, [Callgrind.Output.events] (tag 3), then one row per
   context in id order (tag 4); the reuse summary is the version bins (tag
   5), then one record per context with episodes, ascending (tag 6). *)
type record =
  | Ctx of P.ctx_stats
  | Edge of P.edge
  | Columns of string array (* one space-separated string in the file *)
  | Row of int array
  | Bins of R.version_bins
  | Reuse of Dbi.Context.id * R.fn_reuse * (int * int) list

let encode buf r =
  let ints = List.iter (Varint.write buf) in
  match r with
  | Ctx s ->
    ints
      [ 1; s.ctx; s.calls; s.input_unique; s.input_nonunique; s.local_unique; s.local_nonunique;
        s.written; s.int_ops; s.fp_ops ]
  | Edge e -> ints [ 2; e.src; e.dst; e.bytes; e.unique_bytes ]
  | Columns names ->
    let names = String.concat " " (Array.to_list names) in
    ints [ 3; String.length names ];
    Buffer.add_string buf names
  | Row row -> ints (4 :: Array.length row :: Array.to_list row)
  | Bins b -> ints [ 5; b.zero; b.low; b.high ]
  | Reuse (ctx, f, hist) ->
    ints
      (6 :: ctx :: f.episodes :: f.reused_episodes :: f.reuse_reads :: f.lifetime_sum
     :: List.length hist :: List.concat_map (fun (bin, n) -> [ bin; n ]) hist)

let decode b ~len ~pos =
  let int () = Varint.read b ~len ~pos in
  (* Array.init and List.init read the fields in file order *)
  let fields n = Array.init n (fun _ -> int ()) in
  (* a count of items that take a byte each at least *)
  let count () =
    let n = int () in
    if n < 0 || n > len - !pos then raise Varint.Truncated;
    n
  in
  match int () with
  | 1 ->
    let v = fields 9 in
    Ctx
      { ctx = v.(0); parent = -1; fn = -1; calls = v.(1); input_unique = v.(2);
        input_nonunique = v.(3); local_unique = v.(4); local_nonunique = v.(5); written = v.(6);
        int_ops = v.(7); fp_ops = v.(8) }
  | 2 ->
    let v = fields 4 in
    Edge { src = v.(0); dst = v.(1); bytes = v.(2); unique_bytes = v.(3) }
  | 3 ->
    let n = count () in
    pos := !pos + n;
    Columns (Array.of_list (String.split_on_char ' ' (Bytes.sub_string b (!pos - n) n)))
  | 4 -> Row (fields (count ()))
  | 5 ->
    let v = fields 3 in
    Bins { zero = v.(0); low = v.(1); high = v.(2) }
  | 6 ->
    let v = fields 5 in
    let hist = List.init (count ()) (fun _ -> let bin = int () in (bin, int ())) in
    Reuse
      ( v.(0),
        { episodes = v.(1); reused_episodes = v.(2); reuse_reads = v.(3); lifetime_sum = v.(4) },
        hist )
  | tag -> failwith (Printf.sprintf "unknown record tag %d" tag)

let save ?options snap path =
  let w = Writer.create ~kind:Frame.Profile ?options path in
  let add = Writer.add_record w encode in
  match
    List.iter (fun s -> add (Ctx s)) (P.contexts snap);
    List.iter (fun e -> add (Edge e)) (P.edges snap);
    Option.iter
      (fun costs ->
        add (Columns Callgrind.Output.events);
        Array.iter (fun row -> add (Row row)) costs)
      (P.costs snap);
    Option.iter
      (fun r ->
        add (Bins (R.version_bins r));
        let record ctx = Reuse (ctx, R.fn_reuse r ctx, R.histogram r ctx) in
        List.iter (fun ctx -> add (record ctx)) (R.contexts r))
      (P.reuse snap)
  with
  | () -> Writer.close_names (P.names snap) w
  | exception e ->
    Writer.discard w;
    raise e

(* Every context of the table has exactly one record, and one cost row in
   the columns of [Callgrind.Output.events] when they are present; every
   id a record names is in the table; the tree itself was checked at
   open. *)
let of_reader r =
  let names : Dbi.Names.t = Reader.names r in
  let n = Array.length names.parent in
  let seen = Array.make n false in
  let contexts = ref [] and edges = ref [] in
  let columns = ref false and rows = ref [] and bins = ref None in
  let reuse = ref [] and last = ref (-1) in
  Reader.records r Frame.Profile decode (fun offset rc ->
      let corrupt fmt = Printf.ksprintf (Frame.corrupt ~offset) fmt in
      let known ctx = if ctx < 0 || ctx >= n then corrupt "context %d is not in the table" ctx in
      match rc with
      | Ctx s ->
        known s.ctx;
        if seen.(s.ctx) then corrupt "context %d recorded twice" s.ctx;
        seen.(s.ctx) <- true;
        contexts := s :: !contexts
      | Edge e ->
        known e.src;
        known e.dst;
        edges := e :: !edges
      | Columns c ->
        if c <> Callgrind.Output.events then corrupt "cost columns are not Callgrind's events";
        columns := true
      | Row row ->
        if not !columns || Array.length row <> Array.length Callgrind.Output.events then
          corrupt "cost row without its columns";
        rows := row :: !rows
      | Bins b -> bins := Some b
      | Reuse (ctx, f, hist) ->
        known ctx;
        if !bins = None || ctx <= !last then corrupt "reuse record of context %d out of place" ctx;
        last := ctx;
        reuse := (ctx, f, hist) :: !reuse);
  let missing fmt = Printf.ksprintf (Frame.corrupt ~offset:(Reader.data_end r)) fmt in
  Array.iteri (fun ctx seen -> if not seen then missing "context %d has no record" ctx) seen;
  let costs =
    if not !columns then None
    else if List.length !rows <> n then missing "cost rows do not match the contexts"
    else Some (Array.of_list (List.rev !rows))
  in
  let reuse = Option.map (fun bins -> R.restore bins (List.rev !reuse)) !bins in
  P.make ~names ~contexts:(List.rev !contexts) ~edges:(List.rev !edges) ~costs ~reuse

let load path =
  let r = Reader.open_file path in
  Fun.protect ~finally:(fun () -> Reader.close r) (fun () -> of_reader r)
