type fn_stats = {
  ctx : Dbi.Context.id;
  fn : Dbi.Symbol.id;
  mutable calls : int;
  mutable input_unique : int;
  mutable input_nonunique : int;
  mutable local_unique : int;
  mutable local_nonunique : int;
  mutable written : int;
  mutable int_ops : int;
  mutable fp_ops : int;
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
  contexts : Dbi.Context.t;
  mutable stats : fn_stats array; (* [absent] where a context has none yet *)
  edges : (int, edge) Hashtbl.t;
  mutable last_edge : edge; (* consecutive reads usually share an edge *)
}

(* The empty [last_edge] cache: no context id is negative, so it never
   matches and is never updated. *)
let no_edge = { src = -1; dst = -1; bytes = 0; unique_bytes = 0 }

let zero ctx fn =
  { ctx; fn; calls = 0; input_unique = 0; input_nonunique = 0; local_unique = 0;
    local_nonunique = 0; written = 0; int_ops = 0; fp_ops = 0 }

(* The empty slot of [stats], never handed out nor updated: a sentinel
   rather than an option keeps a [Some] block off every context. *)
let absent = zero (-1) (-1)

let create contexts =
  { contexts; stats = Array.make 256 absent; edges = Hashtbl.create 256; last_edge = no_edge }

let stats t ctx =
  let len = Array.length t.stats in
  if ctx >= len then begin
    let grown = Array.make (max (2 * len) (ctx + 1)) absent in
    Array.blit t.stats 0 grown 0 len;
    t.stats <- grown
  end;
  let s = t.stats.(ctx) in
  if s != absent then s
  else begin
    let s = zero ctx (if ctx = Dbi.Context.root then -1 else Dbi.Context.fn t.contexts ctx) in
    t.stats.(ctx) <- s;
    s
  end

let active s =
  s.calls lor s.input_unique lor s.input_nonunique lor s.local_unique lor s.local_nonunique
  lor s.written lor s.int_ops lor s.fp_ops
  <> 0

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

let edges t = Hashtbl.fold (fun _ e acc -> e :: acc) t.edges []
let contexts t =
  let acc = ref [] in
  for ctx = Array.length t.stats - 1 downto 0 do
    if active t.stats.(ctx) then acc := ctx :: !acc
  done;
  !acc

let read_totals stats =
  List.fold_left
    (fun (unique, total) s ->
      let u = s.input_unique + s.local_unique in
      (unique + u, total + u + s.input_nonunique + s.local_nonunique))
    (0, 0) stats

let totals t = read_totals (List.map (stats t) (contexts t))
