type node = {
  ctx : Dbi.Context.id;
  call : int;
  occurrence : int;
  self : int;
  inclusive : int;
}

(* A growable int column stored in fixed-size blocks: appending never
   copies what is already stored, so the DAG's peak memory is its size,
   not its size plus a doubled copy. Blocks are large enough to be
   allocated straight in the major heap. *)
module Col = struct
  let bits = 12
  let block = 1 lsl bits
  let mask = block - 1

  type t = { mutable blocks : int array array; mutable n : int }

  let create () = { blocks = [||]; n = 0 }
  let[@inline] get c i = c.blocks.(i lsr bits).(i land mask)

  let push c v =
    let b = c.n lsr bits in
    if c.n land mask = 0 then begin
      if b = Array.length c.blocks then begin
        (* only the spine (one pointer per block) is ever copied *)
        let spine = Array.make (max 16 (2 * b)) [||] in
        Array.blit c.blocks 0 spine 0 b;
        c.blocks <- spine
      end;
      c.blocks.(b) <- Array.make block 0
    end;
    c.blocks.(b).(c.n land mask) <- v;
    c.n <- c.n + 1
end

(* Nodes are columns indexed by node id (creation order, which is
   topological). Dependencies are in CSR form: node [i]'s are
   [deps.(dep_off i) .. deps.(dep_off (i + 1) - 1)], in the order the
   pass resolved them (transfers in arrival order, then the call edge,
   then the previous occurrence). The best predecessor is not stored:
   it is the first dependency whose inclusive length equals the node's
   start, {!pred}. *)
type t = {
  serial : int;
  best : int; (* node id ending the critical path, or [none] *)
  nodes : int;
  n_ctx : Col.t;
  n_call : Col.t;
  n_occ : Col.t;
  n_self : Col.t;
  n_incl : Col.t;
  dep_off : Col.t; (* [nodes + 1] entries *)
  deps : Col.t;
}

type stream = (Sigil.Event_log.entry -> unit) -> unit

let call_key ctx call = (ctx lsl 40) lor (call land ((1 lsl 40) - 1))

(* "No node": the handle of an absent previous occurrence or caller, and
   the free-slot key of [latest]. A call key is [min_int] only for a
   context id of 2^22, far above [Shadow.max_ctx]. *)
let none = min_int

(* The latest closed occurrence of every call: open addressing with
   linear probing from call key to node handle, load at most one half. *)
type latest = { mutable keys : int array; mutable vals : int array; mutable count : int }

let[@inline] home key mask =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land mask

let slot keys key =
  let mask = Array.length keys - 1 in
  let i = ref (home key mask) in
  while keys.(!i) <> key && keys.(!i) <> none do
    i := (!i + 1) land mask
  done;
  !i

let latest_find l key =
  let i = slot l.keys key in
  if l.keys.(i) = none then none else l.vals.(i)

let latest_replace l key v =
  if 2 * (l.count + 1) > Array.length l.keys then begin
    let keys = l.keys and vals = l.vals in
    l.keys <- Array.make (2 * Array.length keys) none;
    l.vals <- Array.make (2 * Array.length keys) 0;
    Array.iteri
      (fun j k ->
        if k <> none then begin
          let i = slot l.keys k in
          l.keys.(i) <- k;
          l.vals.(i) <- vals.(j)
        end)
      keys
  end;
  let i = slot l.keys key in
  if l.keys.(i) = none then begin
    l.keys.(i) <- key;
    l.count <- l.count + 1
  end;
  l.vals.(i) <- v

(* The open call stack, pooled by depth: slot 0 is the synthetic root.
   Only the innermost frame ever has work pending (a call closes its
   caller's fragment first, a return closes its own), so the pending
   operations and transfers live in one scratch buffer. *)
type pass_state = {
  mutable f_ctx : int array;
  mutable f_call : int array;
  mutable f_occ : int array; (* next occurrence index *)
  mutable f_last : int array; (* previous occurrence of this call, or [none] *)
  mutable f_call_pred : int array; (* caller's occurrence that called us, or [none] *)
  mutable depth : int; (* innermost open frame; -1 once the root returned *)
  mutable pending_ops : int;
  mutable pending : int array; (* producer call keys, arrival order *)
  mutable n_pending : int;
  mutable dep_buf : int array; (* the closing fragment's dependency handles *)
  latest : latest;
  mutable total_ops : int;
  mutable node_count : int;
  mutable best_handle : int;
  mutable index : int; (* 0-based index of the current entry *)
}

let initial_depth = 64

let grow a n = Array.init (2 * n) (fun i -> if i < n then a.(i) else 0)

let push_frame s ctx call call_pred =
  let d = s.depth + 1 in
  if d = Array.length s.f_ctx then begin
    s.f_ctx <- grow s.f_ctx d;
    s.f_call <- grow s.f_call d;
    s.f_occ <- grow s.f_occ d;
    s.f_last <- grow s.f_last d;
    s.f_call_pred <- grow s.f_call_pred d
  end;
  s.f_ctx.(d) <- ctx;
  s.f_call.(d) <- call;
  s.f_occ.(d) <- 0;
  s.f_last.(d) <- none;
  s.f_call_pred.(d) <- call_pred;
  s.depth <- d

let fail_at s what fmt = Printf.ksprintf failwith ("Critpath: entry %d: %s " ^^ fmt) s.index what

(* The innermost frame must be (ctx, call). *)
let check_open s what ctx call =
  if s.depth < 0 then
    fail_at s what
      "with empty stack: expected an open call (the root has returned), found (ctx %d, call %d)"
      ctx call;
  let d = s.depth in
  if s.f_ctx.(d) <> ctx || s.f_call.(d) <> call then
    fail_at s what
      "does not match the open call: expected (ctx %d, call %d), found (ctx %d, call %d)"
      s.f_ctx.(d) s.f_call.(d) ctx call

(* Closes the innermost frame's fragment into a node and returns its
   handle. *)
let close_fragment s ~add ~incl =
  let d = s.depth in
  if s.n_pending + 2 > Array.length s.dep_buf then
    s.dep_buf <- Array.make (2 * (s.n_pending + 2)) 0;
  let deps = s.dep_buf in
  let nd = ref 0 in
  for j = 0 to s.n_pending - 1 do
    (* a producer that never closed is program input or evicted: no ordering *)
    let h = latest_find s.latest s.pending.(j) in
    if h <> none then begin
      deps.(!nd) <- h;
      incr nd
    end
  done;
  if s.f_call_pred.(d) <> none then begin
    deps.(!nd) <- s.f_call_pred.(d);
    incr nd;
    s.f_call_pred.(d) <- none
  end;
  if s.f_last.(d) <> none then begin
    deps.(!nd) <- s.f_last.(d);
    incr nd
  end;
  let ctx = s.f_ctx.(d) and call = s.f_call.(d) in
  let h = add ~ctx ~call ~occ:s.f_occ.(d) ~self:s.pending_ops deps !nd in
  s.node_count <- s.node_count + 1;
  s.total_ops <- s.total_ops + s.pending_ops;
  s.f_occ.(d) <- s.f_occ.(d) + 1;
  s.f_last.(d) <- h;
  s.pending_ops <- 0;
  s.n_pending <- 0;
  latest_replace s.latest (call_key ctx call) h;
  if s.best_handle = none || incl s.best_handle < incl h then s.best_handle <- h;
  h

(* One pass over the event stream, generic in the node handle: [add]
   records a node whose dependencies are the handles [deps.(0 .. nd-1)]
   and returns its handle, [incl] reads a handle's inclusive chain length
   back. The full analysis hands out node ids; the O(1) summary uses the
   inclusive lengths themselves as handles. Returns (serial length,
   fragment count, best handle or [none]). *)
let pass ~(add : ctx:int -> call:int -> occ:int -> self:int -> int array -> int -> int)
    ~(incl : int -> int) (stream : stream) =
  let s =
    {
      f_ctx = Array.make initial_depth 0;
      f_call = Array.make initial_depth 0;
      f_occ = Array.make initial_depth 0;
      f_last = Array.make initial_depth 0;
      f_call_pred = Array.make initial_depth 0;
      depth = -1;
      pending_ops = 0;
      pending = Array.make 16 0;
      n_pending = 0;
      dep_buf = Array.make 16 0;
      latest = { keys = Array.make 1024 none; vals = Array.make 1024 0; count = 0 };
      total_ops = 0;
      node_count = 0;
      best_handle = none;
      index = 0;
    }
  in
  push_frame s Dbi.Context.root 0 none;
  stream (fun entry ->
      (match entry with
      | Sigil.Event_log.Comp { ctx; call; int_ops; fp_ops } ->
        check_open s "Comp" ctx call;
        s.pending_ops <- s.pending_ops + int_ops + fp_ops
      | Sigil.Event_log.Xfer { src_ctx; src_call; dst_ctx; dst_call; _ } ->
        check_open s "Xfer" dst_ctx dst_call;
        if s.n_pending = Array.length s.pending then s.pending <- grow s.pending s.n_pending;
        s.pending.(s.n_pending) <- call_key src_ctx src_call;
        s.n_pending <- s.n_pending + 1
      | Sigil.Event_log.Call { ctx; call } ->
        if s.depth < 0 then
          fail_at s "Call"
            "with empty stack: expected an open caller (the root has returned), found (ctx %d, \
             call %d)"
            ctx call;
        let b = close_fragment s ~add ~incl in
        push_frame s ctx call b
      | Sigil.Event_log.Ret { ctx; call } ->
        check_open s "Ret" ctx call;
        let (_ : int) = close_fragment s ~add ~incl in
        s.depth <- s.depth - 1);
      s.index <- s.index + 1);
  (* close what remains: only the innermost frame (normally the synthetic
     root) can have work pending *)
  if s.depth >= 0 && (s.pending_ops > 0 || s.n_pending > 0) then
    ignore (close_fragment s ~add ~incl : int);
  (s.total_ops, s.node_count, s.best_handle)

let analyze_stream stream =
  let n_ctx = Col.create () and n_call = Col.create () and n_occ = Col.create () in
  let n_self = Col.create () and n_incl = Col.create () in
  let dep_off = Col.create () and all_deps = Col.create () in
  let add ~ctx ~call ~occ ~self deps nd =
    let id = n_ctx.Col.n in
    let start = ref 0 in
    Col.push dep_off all_deps.Col.n;
    for j = 0 to nd - 1 do
      let d = deps.(j) in
      let i = Col.get n_incl d in
      if i > !start then start := i;
      Col.push all_deps d
    done;
    Col.push n_ctx ctx;
    Col.push n_call call;
    Col.push n_occ occ;
    Col.push n_self self;
    Col.push n_incl (!start + self);
    id
  in
  let serial, nodes, best = pass ~add ~incl:(Col.get n_incl) stream in
  Col.push dep_off all_deps.Col.n;
  { serial; best; nodes; n_ctx; n_call; n_occ; n_self; n_incl; dep_off; deps = all_deps }

let analyze log = analyze_stream (Sigil.Event_log.iter log)

type summary = { s_serial : int; s_critical : int; s_fragments : int }

let summarize_stream stream =
  let add ~ctx:_ ~call:_ ~occ:_ ~self deps nd =
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

(* The predecessor on node [i]'s longest chain: its first dependency that
   reaches the node's start, none when the chain starts at [i]. *)
let pred t i =
  let start = Col.get t.n_incl i - Col.get t.n_self i in
  let p = ref none in
  if start > 0 then begin
    let j = ref (Col.get t.dep_off i) in
    while !p = none do
      let d = Col.get t.deps !j in
      if Col.get t.n_incl d = start then p := d;
      incr j
    done
  end;
  !p

let critical_path t =
  let rec collect acc i =
    if i = none then acc
    else
      collect
        ({
           ctx = Col.get t.n_ctx i;
           call = Col.get t.n_call i;
           occurrence = Col.get t.n_occ i;
           self = Col.get t.n_self i;
           inclusive = Col.get t.n_incl i;
         }
        :: acc)
        (pred t i)
  in
  collect [] t.best

let critical_path_contexts t =
  let path = List.rev (critical_path t) in
  (* leaf first *)
  let rec dedup = function
    | a :: b :: rest when a = b -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup (List.map (fun n -> n.ctx) path)

let node_count t = t.nodes

type schedule = {
  cores : int;
  makespan : int;
  speedup : float;
  utilization : float;
}

(* Greedy list scheduling in creation order (every dependency closes before
   its consumer, so creation order is topological): each fragment starts as
   soon as its dependencies have finished and the earliest-free core is
   available. *)
let schedule t ~cores =
  if cores <= 0 then invalid_arg "Critpath.schedule: cores must be positive";
  let finish = Array.make (max 1 t.nodes) 0 in
  let core_free = Array.make cores 0 in
  let makespan = ref 0 in
  for i = 0 to t.nodes - 1 do
    let ready = ref 0 in
    for j = Col.get t.dep_off i to Col.get t.dep_off (i + 1) - 1 do
      let f = finish.(Col.get t.deps j) in
      if f > !ready then ready := f
    done;
    let core = ref 0 in
    for k = 1 to cores - 1 do
      if core_free.(k) < core_free.(!core) then core := k
    done;
    let start = max !ready core_free.(!core) in
    let stop = start + Col.get t.n_self i in
    core_free.(!core) <- stop;
    finish.(i) <- stop;
    if stop > !makespan then makespan := stop
  done;
  let makespan = !makespan in
  {
    cores;
    makespan;
    speedup = (if makespan = 0 then 1.0 else float_of_int t.serial /. float_of_int makespan);
    utilization =
      (if makespan = 0 then 1.0
       else float_of_int t.serial /. float_of_int (cores * makespan));
  }
