(* An executable spec of the critical-path model, written from the rules
   below and sharing no code with the analysis it checks. It builds the
   dependency DAG explicitly, one array of nodes each holding its weight
   and its predecessor ids, and computes every reported quantity from
   that array by plain dynamic programming. It reads nothing of the
   event stream but the [Sigil.Event_log.entry] constructors, and takes
   [Dbi.Context.root] for the frame that is open before the first Call.
   Each rule is named in brackets; the analysis's interface cites them.

   Fragments.
   [fragment] A node is one fragment of one call, weighted by the sum of
     int_ops + fp_ops of the Comp entries it holds (§II-C2: the event file
     is computation fragments separated by edges; §IV-C: one node per
     function-call fragment).
   [fragment-close] Every Call closes the caller's current fragment, even
     an empty one, and every Ret closes the callee's (§II-C2).
   [fragment-end] At the end of the stream only the innermost open
     frame's fragment becomes a node, and only if it holds operations or
     a transfer (paper silent; chosen: work pending when the stream ends
     counts, an empty remainder does not).

   Edges (Fig 3).
   [order-edge] A fragment depends on its call's previous fragment
     (Fig 3: program order inside a function).
   [call-edge] The caller's fragment that issued a Call precedes the
     callee's first fragment only: functions do not block their caller
     (§IV-C).
   [data-edge] Each Xfer adds one edge to the consuming fragment from the
     producer call's latest fragment that closed before the consumer
     closes; a producer with no closed fragment (program input, evicted,
     never called) adds none. The event file records the producer's call
     but not its fragment, so the format forces this choice (§II-C2).

   Lengths (§IV-C).
   [length] inclusive(v) = weight(v) + the largest inclusive among v's
     predecessors, or weight(v) with none. The serial length is the sum
     of all weights, the critical length the largest inclusive (0 with no
     node), and the parallelism serial / critical (1.0 when critical is 0).

   The path and its ties: the one choice taken from critpath.mli rather
   than from the paper, which names the path but not how ties break.
   [path-end] The path ends at the lowest-id node of maximal inclusive.
   [path-pred] A node's start is the largest inclusive among its
     predecessors (0 with none). Its predecessor on the path is the first
     dependency whose inclusive equals a positive start, taking data edges
     in arrival order, then the call edge, then the order edge; a node
     whose start is 0 begins the path.
   [occurrence] A node's occurrence is its 0-based index among its call's
     fragments.
   [contexts] The path's contexts run from its end (the leaf) back to its
     start, consecutive duplicates dropped (§IV-C's
     "drand48_iterate -> ... -> main").

   Schedule.
   [schedule] The paper only says that chains map onto "slots" (§IV-C),
     so the policy is chosen: list scheduling in creation order. Each node
     starts at the later of the time its predecessors have all finished
     and the time the earliest-free core is free, and runs for its weight.
     The makespan is the last finish (0 with no node), the speedup serial
     / makespan and the utilization serial / (cores * makespan), both 1.0
     when the makespan is 0. *)

type node = {
  ctx : Dbi.Context.id;
  call : int;
  occurrence : int;
  weight : int;
  preds : int list; (* data edges by arrival, then the call edge, then the order edge *)
}

type t = {
  nodes : node array; (* by id, in creation order: every predecessor is older *)
  inclusive : int array;
}

(* A frame of the call stack and its open fragment. *)
type frame = {
  f_ctx : Dbi.Context.id;
  f_call : int;
  mutable caller : int option; (* [call-edge], until the first fragment closes *)
  mutable prev : int option; (* [order-edge] *)
  mutable closed : int; (* fragments closed so far: the next [occurrence] *)
  mutable ops : int;
  mutable producers : (int * int) list; (* the fragment's Xfers, latest first *)
}

let frame ctx call caller =
  { f_ctx = ctx; f_call = call; caller; prev = None; closed = 0; ops = 0; producers = [] }

(* The largest inclusive among [v]'s predecessors, 0 with none. *)
let start inclusive v = List.fold_left (fun m p -> max m inclusive.(p)) 0 v.preds

let build (stream : (Sigil.Event_log.entry -> unit) -> unit) =
  let nodes = ref [] and count = ref 0 in
  let latest = Hashtbl.create 64 in (* (ctx, call) -> its latest closed fragment *)
  let close f =
    let data = List.filter_map (Hashtbl.find_opt latest) (List.rev f.producers) in
    let preds = data @ Option.to_list f.caller @ Option.to_list f.prev in
    let id = !count in
    nodes := { ctx = f.f_ctx; call = f.f_call; occurrence = f.closed; weight = f.ops; preds } :: !nodes;
    incr count;
    Hashtbl.replace latest (f.f_ctx, f.f_call) id;
    f.caller <- None;
    f.prev <- Some id;
    f.closed <- f.closed + 1;
    f.ops <- 0;
    f.producers <- [];
    id
  in
  let stack = ref [ frame Dbi.Context.root 0 None ] in
  stream (fun e ->
      match (e, !stack) with
      | Sigil.Event_log.Comp { int_ops; fp_ops; _ }, f :: _ -> f.ops <- f.ops + int_ops + fp_ops
      | Sigil.Event_log.Xfer { src_ctx; src_call; _ }, f :: _ ->
        f.producers <- (src_ctx, src_call) :: f.producers
      | Sigil.Event_log.Call { ctx; call }, f :: _ -> stack := frame ctx call (Some (close f)) :: !stack
      | Sigil.Event_log.Ret _, f :: rest ->
        ignore (close f : int);
        stack := rest
      | _, [] -> invalid_arg "Critpath_spec.build: entry after the root returned");
  (match !stack with
  | f :: _ when f.ops > 0 || f.producers <> [] -> ignore (close f : int)
  | _ -> ());
  let nodes = Array.of_list (List.rev !nodes) in
  let inclusive = Array.make (Array.length nodes) 0 in
  Array.iteri (fun v n -> inclusive.(v) <- n.weight + start inclusive n) nodes;
  { nodes; inclusive }

let node_count t = Array.length t.nodes
let serial_length t = Array.fold_left (fun s n -> s + n.weight) 0 t.nodes
let critical_length t = Array.fold_left max 0 t.inclusive

let parallelism t =
  let c = critical_length t in
  if c = 0 then 1.0 else float_of_int (serial_length t) /. float_of_int c

(* [path-end] and [path-pred]: node ids from the path's start to its end. *)
let path t =
  let rec back v acc =
    let s = start t.inclusive t.nodes.(v) in
    if s = 0 then v :: acc
    else back (List.find (fun p -> t.inclusive.(p) = s) t.nodes.(v).preds) (v :: acc)
  in
  let best = ref (-1) in
  Array.iteri (fun v i -> if !best < 0 || i > t.inclusive.(!best) then best := v) t.inclusive;
  if !best < 0 then [] else back !best []

let critical_path_contexts t =
  let rec dedup = function
    | a :: (b :: _ as rest) when a = b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup (List.rev_map (fun v -> t.nodes.(v).ctx) (path t))

(* [schedule], over one free time per core. With at least as many cores
   as nodes some core is still free at time 0 whenever a node is placed,
   so cores past the node count are left out. *)
let schedule t ~cores =
  let n = node_count t in
  let free = Array.make (max 1 (min cores n)) 0 and finish = Array.make n 0 in
  Array.iteri
    (fun v node ->
      let ready = List.fold_left (fun m p -> max m finish.(p)) 0 node.preds in
      let core = ref 0 in
      Array.iteri (fun k f -> if f < free.(!core) then core := k) free;
      finish.(v) <- max ready free.(!core) + node.weight;
      free.(!core) <- finish.(v))
    t.nodes;
  let makespan = Array.fold_left max 0 finish and serial = float_of_int (serial_length t) in
  let ratio d = if makespan = 0 then 1.0 else serial /. d in
  (makespan, ratio (float_of_int makespan), ratio (float_of_int cores *. float_of_int makespan))
