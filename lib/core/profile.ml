type fn_stats = {
  mutable input_unique : int;
  mutable input_nonunique : int;
  mutable local_unique : int;
  mutable local_nonunique : int;
  mutable written : int;
  mutable int_ops : int;
  mutable fp_ops : int;
  mutable calls : int;
}

type edge = {
  src : Dbi.Context.id;
  dst : Dbi.Context.id;
  mutable bytes : int;
  mutable unique_bytes : int;
}

(* Context ids are dense and small; pack an edge key into one int. *)
let edge_key src dst = (src lsl 30) lor dst

type t = {
  mutable stats : fn_stats option array;
  edges : (int, edge) Hashtbl.t;
  mutable last_edge : edge; (* consecutive reads usually share an edge *)
}

(* The empty [last_edge] cache: no context id is negative, so it never
   matches and is never updated. *)
let no_edge = { src = -1; dst = -1; bytes = 0; unique_bytes = 0 }

let create () = { stats = Array.make 256 None; edges = Hashtbl.create 256; last_edge = no_edge }

let zero_stats () =
  {
    input_unique = 0;
    input_nonunique = 0;
    local_unique = 0;
    local_nonunique = 0;
    written = 0;
    int_ops = 0;
    fp_ops = 0;
    calls = 0;
  }

let stats t ctx =
  let len = Array.length t.stats in
  if ctx >= len then begin
    let grown = Array.make (max (2 * len) (ctx + 1)) None in
    Array.blit t.stats 0 grown 0 len;
    t.stats <- grown
  end;
  match t.stats.(ctx) with
  | Some s -> s
  | None ->
    let s = zero_stats () in
    t.stats.(ctx) <- Some s;
    s

let edge t src dst =
  let last = t.last_edge in
  if last.src = src && last.dst = dst then last
  else begin
    let key = edge_key src dst in
    let e =
      try Hashtbl.find t.edges key
      with Not_found ->
        let e = { src; dst; bytes = 0; unique_bytes = 0 } in
        Hashtbl.add t.edges key e;
        e
    in
    t.last_edge <- e;
    e
  end

let record_run t ~producer ~consumer ~bytes ~unique_bytes =
  let nonunique = bytes - unique_bytes in
  let s = stats t consumer in
  if producer = consumer then begin
    s.local_unique <- s.local_unique + unique_bytes;
    s.local_nonunique <- s.local_nonunique + nonunique
  end
  else begin
    s.input_unique <- s.input_unique + unique_bytes;
    s.input_nonunique <- s.input_nonunique + nonunique;
    let e = edge t producer consumer in
    e.bytes <- e.bytes + bytes;
    e.unique_bytes <- e.unique_bytes + unique_bytes
  end

let record_read t ~producer ~consumer ~unique ~bytes =
  record_run t ~producer ~consumer ~bytes ~unique_bytes:(if unique then bytes else 0)

let record_write t ~ctx ~bytes =
  let s = stats t ctx in
  s.written <- s.written + bytes

let record_ops t ~ctx kind count =
  let s = stats t ctx in
  match kind with
  | Dbi.Event.Int_op -> s.int_ops <- s.int_ops + count
  | Dbi.Event.Fp_op -> s.fp_ops <- s.fp_ops + count

let record_call t ~ctx =
  let s = stats t ctx in
  s.calls <- s.calls + 1

let merge ~into src =
  for ctx = 0 to Array.length src.stats - 1 do
    match src.stats.(ctx) with
    | None -> ()
    | Some s ->
      let d = stats into ctx in
      d.input_unique <- d.input_unique + s.input_unique;
      d.input_nonunique <- d.input_nonunique + s.input_nonunique;
      d.local_unique <- d.local_unique + s.local_unique;
      d.local_nonunique <- d.local_nonunique + s.local_nonunique;
      d.written <- d.written + s.written;
      d.int_ops <- d.int_ops + s.int_ops;
      d.fp_ops <- d.fp_ops + s.fp_ops;
      d.calls <- d.calls + s.calls
  done;
  Hashtbl.iter
    (fun _ (e : edge) ->
      let d = edge into e.src e.dst in
      d.bytes <- d.bytes + e.bytes;
      d.unique_bytes <- d.unique_bytes + e.unique_bytes)
    src.edges;
  into.last_edge <- no_edge

let edges t = Hashtbl.fold (fun _ e acc -> e :: acc) t.edges []
let contexts t =
  let acc = ref [] in
  for ctx = Array.length t.stats - 1 downto 0 do
    match t.stats.(ctx) with
    | Some _ -> acc := ctx :: !acc
    | None -> ()
  done;
  !acc

let totals t =
  List.fold_left
    (fun (unique, total) ctx ->
      let s = stats t ctx in
      let u = s.input_unique + s.local_unique in
      let n = s.input_nonunique + s.local_nonunique in
      (unique + u, total + u + n))
    (0, 0) (contexts t)
