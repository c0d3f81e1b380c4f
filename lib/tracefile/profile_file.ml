module P = Sigil.Profile_io
module R = Sigil.Reuse

type run = { workload : string; scale : string }

(* A profile opens with its run (tag 7: workload and scale), then holds
   one per-context table: its column names (tag 3), Table I's fields
   ([table1]) and, when the run had Callgrind, [Callgrind.Output.events],
   then one row per context in id order (tag 4). Then come one record per
   producer -> consumer edge (tag 2) and, in reuse mode, the version bins
   (tag 5) and one record per context with episodes, ascending (tag 6).
   Profiles saved before the run record existed start at the columns. *)
type record =
  | Run of run
  | Columns of string array (* one space-separated string in the file *)
  | Row of int array
  | Edge of P.edge
  | Bins of R.version_bins
  | Reuse of Dbi.Context.id * R.fn_reuse * (int * int) list

let table1 = [| "calls"; "in_u"; "in_n"; "loc_u"; "loc_n"; "written"; "iops"; "fops" |]
let with_costs = Array.append table1 Callgrind.Output.events

let table1_row (s : P.ctx_stats) =
  [| s.calls; s.input_unique; s.input_nonunique; s.local_unique; s.local_nonunique; s.written;
     s.int_ops; s.fp_ops |]

let encode buf r =
  let ints = List.iter (Varint.write buf) in
  let str s =
    Varint.write buf (String.length s);
    Buffer.add_string buf s
  in
  match r with
  | Run { workload; scale } ->
    ints [ 7 ];
    str workload;
    str scale
  | Edge e -> ints [ 2; e.src; e.dst; e.bytes; e.unique_bytes ]
  | Columns names ->
    ints [ 3 ];
    str (String.concat " " (Array.to_list names))
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
  let str () =
    let n = count () in
    pos := !pos + n;
    Bytes.sub_string b (!pos - n) n
  in
  match int () with
  | 7 ->
    let workload = str () in
    Run { workload; scale = str () }
  | 2 ->
    let v = fields 4 in
    Edge { src = v.(0); dst = v.(1); bytes = v.(2); unique_bytes = v.(3) }
  | 3 -> Columns (Array.of_list (String.split_on_char ' ' (str ())))
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

let save ?options ~run snap path =
  let w = Writer.create ~kind:Frame.Profile ?options path in
  let add = Writer.add_record w encode in
  let costs = P.costs snap in
  match
    add (Run run);
    add (Columns (if Option.is_none costs then table1 else with_costs));
    for ctx = 0 to P.count snap - 1 do
      let row = table1_row (P.stats snap ctx) in
      add (Row (match costs with Some c -> Array.append row c.(ctx) | None -> row))
    done;
    List.iter (fun e -> add (Edge e)) (P.edges snap);
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

let rec ascending = function
  | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
  | _ -> true

(* The loader accepts only what [save] writes: the run at most once and
   first, the columns once, then exactly one row per context of the
   table; edges that name contexts of the table, each pair once; the
   bins once, then reuse records of contexts with episodes, ascending,
   each histogram's bins ascending. The tree itself was checked at
   open. *)
let of_reader r =
  let names : Dbi.Names.t = Reader.names r in
  let n = Array.length names.parent in
  let run = ref None and columns = ref 0 and rows = ref [] and row_count = ref 0 in
  let edges = ref [] and pairs = Hashtbl.create 64 in
  let bins = ref None and reuse = ref [] and last = ref (-1) in
  Reader.records r Frame.Profile decode (fun offset rc ->
      let corrupt fmt = Printf.ksprintf (Frame.corrupt ~offset) fmt in
      let known ctx = if ctx < 0 || ctx >= n then corrupt "context %d is not in the table" ctx in
      match rc with
      | Run v ->
        if !run <> None || !columns > 0 then corrupt "run record out of place";
        run := Some v
      | Columns c ->
        if !columns > 0 then corrupt "second columns record";
        if c <> table1 && c <> with_costs then
          corrupt "columns are not Table I's fields and Callgrind's events";
        columns := Array.length c
      | Row row ->
        if !columns = 0 || Array.length row <> !columns then
          corrupt "row does not match the columns";
        if !row_count = n then corrupt "row of context %d, which is not in the table" n;
        incr row_count;
        rows := row :: !rows
      | Edge e ->
        known e.src;
        known e.dst;
        if Hashtbl.mem pairs (e.src, e.dst) then corrupt "edge %d -> %d recorded twice" e.src e.dst;
        Hashtbl.add pairs (e.src, e.dst) ();
        edges := e :: !edges
      | Bins b ->
        if !bins <> None then corrupt "second reuse bins record";
        bins := Some b
      | Reuse (ctx, f, hist) ->
        known ctx;
        if !bins = None || ctx <= !last then corrupt "reuse record of context %d out of place" ctx;
        if f.episodes = 0 then corrupt "reuse record of context %d has no episode" ctx;
        if not (ascending hist) then corrupt "histogram bins of context %d not ascending" ctx;
        last := ctx;
        reuse := (ctx, f, hist) :: !reuse);
  if !row_count < n then
    Frame.corrupt ~offset:(Reader.data_end r) (Printf.sprintf "context %d has no row" !row_count);
  let rows = Array.of_list (List.rev !rows) and k = Array.length table1 in
  let contexts =
    List.init n (fun ctx : P.ctx_stats ->
        let v = rows.(ctx) in
        { ctx; fn = names.fn.(ctx); calls = v.(0); input_unique = v.(1); input_nonunique = v.(2);
          local_unique = v.(3); local_nonunique = v.(4); written = v.(5); int_ops = v.(6);
          fp_ops = v.(7) })
  in
  let costs =
    if !columns > k then Some (Array.map (fun row -> Array.sub row k (!columns - k)) rows) else None
  in
  let reuse = Option.map (fun bins -> R.restore bins (List.rev !reuse)) !bins in
  (P.make ~names ~contexts ~edges:(List.rev !edges) ~costs ~reuse, !run)

let load path =
  let r = Reader.open_file path in
  Fun.protect ~finally:(fun () -> Reader.close r) (fun () -> of_reader r)
