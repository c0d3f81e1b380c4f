type node = {
  ctx : Dbi.Context.id;
  call : int;
  occurrence : int;
  self : int;
  inclusive : int;
}

type built = {
  b_id : int;
  b_ctx : Dbi.Context.id;
  b_call : int;
  b_occ : int;
  b_self : int;
  b_incl : int;
  b_pred : built option; (* the predecessor on the longest chain *)
  b_preds : built list; (* every dependency, for scheduling *)
}

type t = {
  serial : int;
  best : built option;
  nodes : int;
  order : built array; (* creation (= topological) order, slots [0, nodes) *)
}

type stream = (Sigil.Event_log.entry -> unit) -> unit

let call_key ctx call = (ctx lsl 40) lor (call land ((1 lsl 40) - 1))

type 'n frame = {
  f_ctx : Dbi.Context.id;
  f_call : int;
  mutable f_occ : int;
  mutable f_last : 'n option; (* previous occurrence of this call *)
  mutable f_call_pred : 'n option; (* caller's occurrence that called us *)
  mutable f_pending_ops : int;
  mutable f_pending_xfers : (Dbi.Context.id * int) list; (* (src ctx, src call) *)
}

(* One pass over the event stream, generic in the per-fragment node
   representation: [mk] builds a node from its dependencies (the full
   analysis allocates a DAG record, the O(1) summary keeps just the
   inclusive length), [incl] reads the inclusive chain length back.
   Returns (serial length, fragment count, best node). *)
let pass (type n) ~(mk : ctx:Dbi.Context.id -> call:int -> occ:int -> self:int -> deps:n list -> n)
    ~(incl : n -> int) (stream : stream) : int * int * n option =
  let latest_closed : (int, n) Hashtbl.t = Hashtbl.create 1024 in
  let serial = ref 0 in
  let nodes = ref 0 in
  let best : n option ref = ref None in
  let consider b =
    match !best with
    | Some cur when incl cur >= incl b -> ()
    | Some _ | None -> best := Some b
  in
  let close_fragment frame =
    let deps = ref [] in
    (match frame.f_last with Some b -> deps := b :: !deps | None -> ());
    (match frame.f_call_pred with Some b -> deps := b :: !deps | None -> ());
    frame.f_call_pred <- None;
    List.iter
      (fun (src_ctx, src_call) ->
        match Hashtbl.find_opt latest_closed (call_key src_ctx src_call) with
        | Some b -> deps := b :: !deps
        | None -> () (* program input or evicted producer: no ordering *))
      frame.f_pending_xfers;
    let b =
      mk ~ctx:frame.f_ctx ~call:frame.f_call ~occ:frame.f_occ ~self:frame.f_pending_ops
        ~deps:!deps
    in
    incr nodes;
    serial := !serial + frame.f_pending_ops;
    frame.f_occ <- frame.f_occ + 1;
    frame.f_last <- Some b;
    frame.f_pending_ops <- 0;
    frame.f_pending_xfers <- [];
    Hashtbl.replace latest_closed (call_key frame.f_ctx frame.f_call) b;
    consider b;
    b
  in
  let new_frame ctx call call_pred =
    {
      f_ctx = ctx;
      f_call = call;
      f_occ = 0;
      f_last = None;
      f_call_pred = call_pred;
      f_pending_ops = 0;
      f_pending_xfers = [];
    }
  in
  let stack = ref [ new_frame Dbi.Context.root 0 None ] in
  let top () =
    match !stack with
    | frame :: _ -> frame
    | [] -> failwith "Critpath: empty stack"
  in
  stream (fun entry ->
      match entry with
      | Sigil.Event_log.Comp { ctx; call; int_ops; fp_ops } ->
        let frame = top () in
        if frame.f_ctx <> ctx || frame.f_call <> call then
          failwith "Critpath: Comp does not match the open call";
        frame.f_pending_ops <- frame.f_pending_ops + int_ops + fp_ops
      | Sigil.Event_log.Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes = _; unique_bytes = _ }
        ->
        let frame = top () in
        if frame.f_ctx <> dst_ctx || frame.f_call <> dst_call then
          failwith "Critpath: Xfer does not match the open call";
        frame.f_pending_xfers <- (src_ctx, src_call) :: frame.f_pending_xfers
      | Sigil.Event_log.Call { ctx; call } ->
        let caller = top () in
        let b = close_fragment caller in
        stack := new_frame ctx call (Some b) :: !stack
      | Sigil.Event_log.Ret { ctx; call } -> (
        match !stack with
        | frame :: rest ->
          if frame.f_ctx <> ctx || frame.f_call <> call then
            failwith "Critpath: Ret does not match the open call";
          let (_ : n) = close_fragment frame in
          stack := rest
        | [] -> failwith "Critpath: Ret with empty stack"));
  (* close whatever remains (normally just the synthetic root) *)
  List.iter
    (fun frame ->
      if frame.f_pending_ops > 0 || frame.f_pending_xfers <> [] then
        ignore (close_fragment frame))
    !stack;
  (!serial, !nodes, !best)

let analyze_stream stream =
  let id = ref 0 in
  let order = ref [||] in
  let mk ~ctx ~call ~occ ~self ~deps =
    let start, pred =
      List.fold_left
        (fun (start, pred) (b : built) ->
          if b.b_incl > start then (b.b_incl, Some b) else (start, pred))
        (0, None) deps
    in
    let b =
      {
        b_id = !id;
        b_ctx = ctx;
        b_call = call;
        b_occ = occ;
        b_self = self;
        b_incl = start + self;
        b_pred = pred;
        b_preds = deps;
      }
    in
    (* indexed by [b_id] and grown by doubling: one slot per node, and
       nothing to reverse at the end of the pass, when the DAG is
       largest *)
    if b.b_id = Array.length !order then begin
      let grown = Array.make (max 1024 (2 * b.b_id)) b in
      Array.blit !order 0 grown 0 b.b_id;
      order := grown
    end;
    !order.(b.b_id) <- b;
    incr id;
    b
  in
  let serial, nodes, best = pass ~mk ~incl:(fun b -> b.b_incl) stream in
  { serial; best; nodes; order = !order }

type summary = { s_serial : int; s_critical : int; s_fragments : int }

let summarize_stream stream =
  let mk ~ctx:_ ~call:_ ~occ:_ ~self ~deps =
    self + List.fold_left (fun acc d -> max acc d) 0 deps
  in
  let serial, nodes, best = pass ~mk ~incl:Fun.id stream in
  {
    s_serial = serial;
    s_critical = (match best with Some incl -> incl | None -> 0);
    s_fragments = nodes;
  }

let summary_parallelism s =
  if s.s_critical = 0 then 1.0 else float_of_int s.s_serial /. float_of_int s.s_critical

let serial_length t = t.serial

let critical_path_length t =
  match t.best with
  | Some b -> b.b_incl
  | None -> 0

let parallelism t =
  let cp = critical_path_length t in
  if cp = 0 then 1.0 else float_of_int t.serial /. float_of_int cp

let critical_path t =
  let rec collect acc = function
    | None -> acc
    | Some b ->
      collect
        ({ ctx = b.b_ctx; call = b.b_call; occurrence = b.b_occ; self = b.b_self;
           inclusive = b.b_incl }
        :: acc)
        b.b_pred
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
    let b = t.order.(i) in
    let ready = List.fold_left (fun acc p -> max acc finish.(p.b_id)) 0 b.b_preds in
    let core = ref 0 in
    for k = 1 to cores - 1 do
      if core_free.(k) < core_free.(!core) then core := k
    done;
    let start = max ready core_free.(!core) in
    let stop = start + b.b_self in
    core_free.(!core) <- stop;
    finish.(b.b_id) <- stop;
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
