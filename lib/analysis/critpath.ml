type node = {
  ctx : Dbi.Context.id;
  call : int;
  occurrence : int;
  self : int;
  inclusive : int;
}

(* Growable columns stored in fixed-size blocks: appending never copies
   what is already stored, so the DAG's peak memory is its size, not its
   size plus a doubled copy. Only the spine (one pointer per block) is
   ever copied; its spare slots hold the block that grew it until their
   own arrives, so a lookup is bounded by the column's count, never by
   the spine's length. Blocks are large enough to be allocated straight in
   the major heap. *)
let add_block spine k block =
  let spine =
    if k < Array.length spine then spine else Array.append spine (Array.make (max 16 k) block)
  in
  spine.(k) <- block;
  spine

(* Every column value and table handle is an unsigned 32-bit lane of a
   [Bytes.t], read and written without boxing an int32; the all-ones lane
   is the table's "no node". A pass checks what it stores against
   [lane_none] first, so no value wraps. *)
let lane_none = 0xFFFF_FFFF
let[@inline] lane b i = Int32.to_int (Bytes.get_int32_le b (i lsl 2)) land lane_none
let[@inline] set_lane b i v = Bytes.set_int32_le b (i lsl 2) (Int32.of_int v)

(* Lanes, in blocks of 4096 (16 KB). *)
module Col = struct
  let bits = 12
  let mask = (1 lsl bits) - 1
  let block_bytes = 4 lsl bits

  type t = { mutable blocks : Bytes.t array; mutable n : int }

  let create () = { blocks = [||]; n = 0 }
  let[@inline] get c i = lane c.blocks.(i lsr bits) (i land mask)

  let push c v =
    let k = c.n lsr bits in
    if c.n land mask = 0 then c.blocks <- add_block c.blocks k (Bytes.create block_bytes);
    set_lane c.blocks.(k) (c.n land mask) v;
    c.n <- c.n + 1
end

(* Bytes, in blocks of 64 KB, with an LEB128 encoder. *)
module Buf = struct
  let bits = 16
  let mask = (1 lsl bits) - 1

  type t = { mutable blocks : Bytes.t array; mutable n : int }

  let create () = { blocks = [||]; n = 0 }
  let[@inline] get b i = Char.code (Bytes.unsafe_get b.blocks.(i lsr bits) (i land mask))

  let push b v =
    let k = b.n lsr bits in
    if b.n land mask = 0 then b.blocks <- add_block b.blocks k (Bytes.create (mask + 1));
    Bytes.unsafe_set b.blocks.(k) (b.n land mask) (Char.unsafe_chr v);
    b.n <- b.n + 1

  let rec put b v =
    push b (if v < 0x80 then v else v land 0x7F lor 0x80);
    if v >= 0x80 then put b (v lsr 7)
end

type cursor = { buf : Buf.t; mutable pos : int }

let rec read_more c v shift =
  let b = Buf.get c.buf c.pos in
  c.pos <- c.pos + 1;
  let v = v lor ((b land 0x7F) lsl shift) in
  if b < 0x80 then v else read_more c v (shift + 7)

(* Most varints are one byte: that case is inline. *)
let[@inline] read c =
  let b = Buf.get c.buf c.pos in
  c.pos <- c.pos + 1;
  if b < 0x80 then b else read_more c (b land 0x7F) 7

(* Nodes are numbered by creation order, which is topological. A node's
   inclusive length is a lane column indexed by node id; the rest is its
   record in one byte stream of LEB128 varints: context, call number,
   dependency count, then [id - dep] per dependency in the order the pass
   resolved them (transfers in arrival order, the call edge, the previous
   occurrence). [seek] holds every [seek_every]-th record's offset. A
   node's start is the largest inclusive length among its dependencies (0
   without any), so its self cost is [incl - start] and its best
   predecessor is the first dependency that reaches the start. *)
type t = {
  serial : int;
  best : int; (* node id ending the critical path, or [none] *)
  nodes : int;
  n_incl : Col.t;
  records : Buf.t;
  seek : Col.t; (* byte offset of node [k * seek_every]'s record *)
  mutable finish : Bytes.t; (* [schedule]'s finish-time lanes: made once, reused *)
}

let seek_every = 64

type stream = (Sigil.Event_log.entry -> unit) -> unit

(* Context ids fit the shadow's 16-bit plane; a pass only packs a
   (ctx, call) it has checked. *)
let max_ctx = Sigil.Shadow.max_ctx
let call_key = Sigil.Event_log.call_key
let key_ctx = Sigil.Event_log.key_ctx
let key_call = Sigil.Event_log.key_call

(* "No node": the handle of an absent previous occurrence, caller or
   producer. Handles are node ids or inclusive lengths, both below it. *)
let none = lane_none

(* The open call stack, pooled by depth: slot 0 is the synthetic root.
   Only the innermost frame ever has work pending (a call closes its
   caller's fragment first, a return closes its own), so its operations
   and resolved dependencies live in one scratch buffer. The latest closed
   occurrence of every call is lane [call] of [latest.(ctx)], [none] until
   it closes: call numbers count from 1 per context in Call order, so each
   context's row is dense. A row's first block starts at 8 lanes and
   doubles until it is whole; later lanes come in whole blocks, which are
   never copied. *)
type pass_state = {
  mutable f_key : int array;
  mutable f_last : int array; (* previous occurrence of this call, or [none] *)
  mutable f_call_pred : int array; (* caller's occurrence that called us, or [none] *)
  mutable depth : int; (* innermost open frame; -1 once the root returned *)
  mutable pending_ops : int;
  mutable dep_buf : int array; (* the open fragment's dependency handles *)
  mutable n_deps : int;
  mutable xfer_pending : bool; (* a transfer arrived, resolved or not *)
  mutable latest : Bytes.t array array; (* by context, then block of call numbers *)
  mutable calls : int array; (* calls seen per context *)
  mutable total_ops : int;
  mutable node_count : int;
  mutable best_handle : int;
  mutable index : int; (* 0-based index of the current entry *)
}

let initial_depth = 64

let grow a n = Array.init (2 * n) (fun i -> if i < n then a.(i) else 0)

let push_dep s h =
  if s.n_deps = Array.length s.dep_buf then s.dep_buf <- grow s.dep_buf s.n_deps;
  s.dep_buf.(s.n_deps) <- h;
  s.n_deps <- s.n_deps + 1

let push_frame s key call_pred =
  let d = s.depth + 1 in
  if d = Array.length s.f_key then begin
    s.f_key <- grow s.f_key d;
    s.f_last <- grow s.f_last d;
    s.f_call_pred <- grow s.f_call_pred d
  end;
  s.f_key.(d) <- key;
  s.f_last.(d) <- none;
  s.f_call_pred.(d) <- call_pred;
  s.depth <- d

(* A producer outside the table never closed: program input, evicted or
   out of range. The calls seen bound the lookup: a row's spare spine
   slots point at a block of other calls. *)
let latest_find s ctx call =
  if ctx < 0 || ctx >= Array.length s.calls || call < 0 || call > s.calls.(ctx) then none
  else
    let row = s.latest.(ctx) in
    if Array.length row = 0 then none else lane row.(call lsr Col.bits) (call land Col.mask)

let fail_at s what fmt = Printf.ksprintf failwith ("Critpath: entry %d: %s " ^^ fmt) s.index what

(* Checks that [call] is context [ctx]'s next call number and opens its
   slot in the context's row. *)
let register_call s ctx call =
  if ctx < 0 || ctx > max_ctx then
    fail_at s "Call" "context out of range: expected 0 .. %d, found (ctx %d, call %d)"
      max_ctx ctx call;
  let n = Array.length s.calls in
  if ctx >= n then begin
    let m = min (max_ctx + 1) (max (2 * n) (ctx + 1)) in
    s.calls <- Array.init m (fun i -> if i < n then s.calls.(i) else 0);
    s.latest <- Array.init m (fun i -> if i < n then s.latest.(i) else [||])
  end;
  let next = s.calls.(ctx) + 1 in
  if call <> next then
    fail_at s "Call" "out of sequence: expected (ctx %d, call %d), found (ctx %d, call %d)" ctx
      next ctx call;
  s.calls.(ctx) <- call;
  let row = s.latest.(ctx) and k = call lsr Col.bits and j = call land Col.mask in
  if k > 0 && j = 0 then s.latest.(ctx) <- add_block row k (Bytes.make Col.block_bytes '\xff')
  else if k = 0 && (row = [||] || 4 * j >= Bytes.length row.(0)) then begin
    let old = if row = [||] then Bytes.empty else row.(0) in
    let b = Bytes.make (min Col.block_bytes (max 32 (2 * Bytes.length old))) '\xff' in
    Bytes.blit old 0 b 0 (Bytes.length old);
    s.latest.(ctx) <- [| b |]
  end

(* The innermost frame must be (ctx, call). *)
let check_open s what ctx call =
  if s.depth < 0 then
    fail_at s what
      "with empty stack: expected an open call (the root has returned), found (ctx %d, call %d)"
      ctx call;
  let key = s.f_key.(s.depth) in
  if key_ctx key <> ctx || key_call key <> call then
    fail_at s what
      "does not match the open call: expected (ctx %d, call %d), found (ctx %d, call %d)"
      (key_ctx key) (key_call key) ctx call

(* Closes the innermost frame's fragment into a node and returns its
   handle. *)
let close_fragment s ~add ~incl =
  let d = s.depth in
  if s.f_call_pred.(d) <> none then begin
    push_dep s s.f_call_pred.(d);
    s.f_call_pred.(d) <- none
  end;
  if s.f_last.(d) <> none then push_dep s s.f_last.(d);
  let key = s.f_key.(d) in
  let h = add ~at:s.index ~key ~self:s.pending_ops s.dep_buf s.n_deps in
  s.node_count <- s.node_count + 1;
  s.total_ops <- s.total_ops + s.pending_ops;
  s.f_last.(d) <- h;
  s.pending_ops <- 0;
  s.n_deps <- 0;
  s.xfer_pending <- false;
  let ctx = key_ctx key and call = key_call key in
  set_lane s.latest.(ctx).(call lsr Col.bits) (call land Col.mask) h;
  if s.best_handle = none || incl s.best_handle < incl h then s.best_handle <- h;
  h

(* One pass over the event stream, generic in the node handle: [add ~at]
   records a node, closed by entry [at], whose dependencies are the
   handles [deps.(0 .. nd-1)] and returns its handle, [incl] reads a
   handle's inclusive chain length back. The full analysis hands out
   node ids; the O(1) summary uses the inclusive lengths themselves as
   handles. Returns (serial length, fragment count, best handle or
   [none]). *)
let pass ~(add : at:int -> key:int -> self:int -> int array -> int -> int) ~(incl : int -> int)
    (stream : stream) =
  let s =
    {
      f_key = Array.make initial_depth 0;
      f_last = Array.make initial_depth 0;
      f_call_pred = Array.make initial_depth 0;
      depth = -1;
      pending_ops = 0;
      dep_buf = Array.make 16 0;
      n_deps = 0;
      xfer_pending = false;
      latest = [| [| Bytes.make 32 '\xff' |] |];
      calls = [| 0 |];
      total_ops = 0;
      node_count = 0;
      best_handle = none;
      index = 0;
    }
  in
  push_frame s (call_key Dbi.Context.root 0) none;
  stream (fun entry ->
      (match entry with
      | Sigil.Event_log.Comp { ctx; call; int_ops; fp_ops } ->
        check_open s "Comp" ctx call;
        (* the serial length bounds every inclusive length and finish
           time; each count is bounded first, so the sum cannot wrap *)
        if int_ops < 0 || fp_ops < 0 || int_ops >= lane_none || fp_ops >= lane_none
           || s.total_ops + s.pending_ops + int_ops + fp_ops >= lane_none
        then
          fail_at s "Comp" "past the 32-bit bound: expected a serial length below %d, found \
                            %d int and %d fp ops at (ctx %d, call %d)"
            lane_none int_ops fp_ops ctx call;
        s.pending_ops <- s.pending_ops + int_ops + fp_ops
      | Sigil.Event_log.Xfer { src_ctx; src_call; dst_ctx; dst_call; _ } ->
        check_open s "Xfer" dst_ctx dst_call;
        (* nothing closes before this fragment does, so the producer's
           latest occurrence can be resolved now *)
        let h = latest_find s src_ctx src_call in
        if h <> none then push_dep s h;
        s.xfer_pending <- true
      | Sigil.Event_log.Call { ctx; call } ->
        if s.depth < 0 then
          fail_at s "Call"
            "with empty stack: expected an open caller (the root has returned), found (ctx %d, \
             call %d)"
            ctx call;
        register_call s ctx call;
        let b = close_fragment s ~add ~incl in
        push_frame s (call_key ctx call) b
      | Sigil.Event_log.Ret { ctx; call } ->
        check_open s "Ret" ctx call;
        let (_ : int) = close_fragment s ~add ~incl in
        s.depth <- s.depth - 1);
      s.index <- s.index + 1);
  (* close what remains: only the innermost frame (normally the synthetic
     root) can have work pending *)
  if s.depth >= 0 && (s.pending_ops > 0 || s.xfer_pending) then
    ignore (close_fragment s ~add ~incl : int);
  (s.total_ops, s.node_count, s.best_handle)

let analyze_stream stream =
  let n_incl = Col.create () and records = Buf.create () and seek = Col.create () in
  let add ~at ~key ~self deps nd =
    let id = n_incl.Col.n in
    (* a record takes 3 bytes or more, so this bounds the node ids too *)
    if id mod seek_every = 0 && records.Buf.n >= lane_none then
      Printf.ksprintf failwith "Critpath: entry %d: node %d's record starts past the 32-bit \
                                bound, at byte %d" at id records.Buf.n;
    if id mod seek_every = 0 then Col.push seek records.Buf.n;
    Buf.put records (key_ctx key);
    Buf.put records (key_call key);
    Buf.put records nd;
    let start = ref 0 in
    for j = 0 to nd - 1 do
      let d = deps.(j) in
      let i = Col.get n_incl d in
      if i > !start then start := i;
      Buf.put records (id - d)
    done;
    Col.push n_incl (!start + self);
    id
  in
  let serial, nodes, best = pass ~add ~incl:(Col.get n_incl) stream in
  { serial; best; nodes; n_incl; records; seek; finish = Bytes.empty }

type summary = { s_serial : int; s_critical : int; s_fragments : int }

let summarize_stream stream =
  let add ~at:_ ~key:_ ~self deps nd =
    let start = ref 0 in
    for j = 0 to nd - 1 do
      if deps.(j) > !start then start := deps.(j)
    done;
    !start + self
  in
  let serial, nodes, best = pass ~add ~incl:Fun.id stream in
  { s_serial = serial; s_critical = (if best = none then 0 else best); s_fragments = nodes }

let summary_parallelism s =
  if s.s_critical = 0 then 1.0 else float_of_int s.s_serial /. float_of_int s.s_critical

let serial_length t = t.serial

let critical_path_length t = if t.best = none then 0 else Col.get t.n_incl t.best

let parallelism t =
  let cp = critical_path_length t in
  if cp = 0 then 1.0 else float_of_int t.serial /. float_of_int cp

(* Folds [f] over the critical path from its end back to its start, with
   each node's id and call key. Every step goes to a lower id, so each
   block of [seek_every] records on the way is decoded once, into its
   nodes' keys and best predecessors. *)
let fold_path t f acc =
  let keys = Array.make seek_every 0 and preds = Array.make seek_every none in
  let c = { buf = t.records; pos = 0 } in
  let rec go acc block i =
    if i = none then acc
    else begin
      let b = i / seek_every in
      if b <> block then begin
        c.pos <- Col.get t.seek b;
        for j = 0 to min seek_every (t.nodes - (b * seek_every)) - 1 do
          let id = (b * seek_every) + j in
          let ctx = read c in
          keys.(j) <- call_key ctx (read c);
          let p = ref none and start = ref 0 in
          for _ = 1 to read c do
            let d = id - read c in
            if Col.get t.n_incl d > !start then begin
              start := Col.get t.n_incl d;
              p := d
            end
          done;
          preds.(j) <- !p
        done
      end;
      let j = i mod seek_every in
      go (f acc i keys.(j)) b preds.(j)
    end
  in
  go acc (-1) t.best

let critical_path t =
  (* every node's call key is looked up: hash it inline, not with the
     generic hash's C call *)
  let module Keys = Hashtbl.Make (struct
    include Int
    let hash k = (k lxor (k lsr 29)) land max_int
  end) in
  let seen = Keys.create 16 in
  (* program order *)
  let path =
    fold_path t
      (fun acc i key ->
        Keys.replace seen key 0;
        i :: acc)
      []
  in
  (* a node's occurrence is the number of earlier nodes of its call: one
     forward scan up to the path's end, counting only the calls on it. A
     node's predecessor on the path is the one before it, so its self
     cost is the difference of their inclusive lengths. *)
  let c = { buf = t.records; pos = 0 } in
  let rec scan i prev path acc =
    match path with
    | [] -> List.rev acc
    | p :: rest ->
      let ctx = read c in
      let call = read c in
      for _ = 1 to read c do
        ignore (read c : int)
      done;
      let key = call_key ctx call in
      let occurrence = Option.value (Keys.find_opt seen key) ~default:(-1) in
      if occurrence >= 0 then Keys.replace seen key (occurrence + 1);
      if i < p then scan (i + 1) prev path acc
      else
        let inclusive = Col.get t.n_incl i in
        let n = { ctx; call; occurrence; self = inclusive - prev; inclusive } in
        scan (i + 1) inclusive rest (n :: acc)
  in
  scan 0 0 path []

let critical_path_contexts t =
  (* leaf first, consecutive duplicates removed *)
  List.rev
    (fold_path t
       (fun acc _ key ->
         match acc with
         | ctx :: _ when ctx = key_ctx key -> acc
         | _ -> key_ctx key :: acc)
       [])

let node_count t = t.nodes

type schedule = {
  cores : int;
  makespan : int;
  speedup : float;
  utilization : float;
}

(* [free.(0 .. n-1)] as a binary min-heap of free times: gives its top
   the time [v] and restores the order. *)
let replace_top free n v =
  let i = ref 0 and l = ref 1 in
  while !l < n do
    let c = if !l + 1 < n && free.(!l + 1) < free.(!l) then !l + 1 else !l in
    if free.(c) < v then begin
      free.(!i) <- free.(c);
      i := c;
      l := (2 * c) + 1
    end
    else l := n
  done;
  free.(!i) <- v

(* Greedy list scheduling in creation order (every dependency closes before
   its consumer, so creation order is topological): each fragment starts as
   soon as its dependencies have finished and the earliest-free core is
   available. Cores are alike, so which earliest-free core takes it moves
   no start time: the free times form a binary min-heap, and only
   [min cores nodes] of them are kept. Finish times are lanes: none
   exceeds the serial length. *)
let schedule t ~cores =
  if cores <= 0 then invalid_arg "Critpath.schedule: cores must be positive";
  (* every lane is written before it is read, so no reset is needed *)
  if Bytes.length t.finish < 4 * t.nodes then t.finish <- Bytes.create (4 * t.nodes);
  let finish = t.finish in
  let n = min cores (max 1 t.nodes) in
  let free = Array.make n 0 in
  let makespan = ref 0 in
  let c = { buf = t.records; pos = 0 } in
  for i = 0 to t.nodes - 1 do
    ignore (read c + read c : int) (* context and call *);
    let ready = ref 0 and dep_start = ref 0 in
    for _ = 1 to read c do
      let d = i - read c in
      if lane finish d > !ready then ready := lane finish d;
      if Col.get t.n_incl d > !dep_start then dep_start := Col.get t.n_incl d
    done;
    let stop = max !ready free.(0) + Col.get t.n_incl i - !dep_start in
    replace_top free n stop;
    set_lane finish i stop;
    if stop > !makespan then makespan := stop
  done;
  let makespan = !makespan in
  {
    cores;
    makespan;
    speedup = (if makespan = 0 then 1.0 else float_of_int t.serial /. float_of_int makespan);
    utilization =
      (if makespan = 0 then 1.0
       else float_of_int t.serial /. (float_of_int cores *. float_of_int makespan));
  }
