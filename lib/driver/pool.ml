type t = {
  lock : Mutex.t;
  work : Condition.t; (* a task was queued, or the pool is stopping *)
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  size : int;
  (* accounting: all atomics are preallocated at [create] so the per-task
     hot path is two fetch-and-adds and a DLS read — no allocation *)
  tasks : int Atomic.t;
  batches : int Atomic.t;
  per_domain : int Atomic.t array; (* slot 0 = caller, 1.. = workers *)
  slot : int Domain.DLS.key;
}

let recommended () = max 1 (min 8 (Domain.recommended_domain_count ()))

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec next () =
    match Queue.take_opt t.queue with
    | Some job -> Some job
    | None ->
      if t.stopping then None
      else begin
        Condition.wait t.work t.lock;
        next ()
      end
  in
  let job = next () in
  Mutex.unlock t.lock;
  match job with
  | None -> ()
  | Some job ->
    job ();
    worker_loop t

let create ?(domains = recommended ()) () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
      size = domains;
      tasks = Atomic.make 0;
      batches = Atomic.make 0;
      per_domain = Array.init domains (fun _ -> Atomic.make 0);
      slot = Domain.DLS.new_key (fun () -> 0);
    }
  in
  t.workers <-
    List.init (domains - 1) (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set t.slot (i + 1);
            worker_loop t));
  t

let size t = t.size

type 'b cell =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

let map t f items =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let results = Array.make n Pending in
    let remaining = ref n in (* protected by t.lock *)
    let batch_done = Condition.create () in
    let task i () =
      Atomic.incr t.tasks;
      Atomic.incr t.per_domain.(Domain.DLS.get t.slot);
      let cell =
        match f items.(i) with
        | v -> Done v
        | exception e -> Failed (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.lock;
      results.(i) <- cell;
      decr remaining;
      if !remaining = 0 then Condition.broadcast batch_done;
      Mutex.unlock t.lock
    in
    Atomic.incr t.batches;
    Mutex.lock t.lock;
    if t.stopping then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.map: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.work;
    (* The caller helps: run queued tasks (of this batch or any nested one)
       until every task of this batch has completed somewhere. Waiting only
       happens with an empty queue, so a task blocked here on a nested batch
       always leaves its sub-tasks runnable by other domains. *)
    let rec help () =
      if !remaining = 0 then Mutex.unlock t.lock
      else
        match Queue.take_opt t.queue with
        | Some job ->
          Mutex.unlock t.lock;
          job ();
          Mutex.lock t.lock;
          help ()
        | None ->
          Condition.wait batch_done t.lock;
          help ()
    in
    help ();
    (* submission order; first failure (by index) wins *)
    Array.iteri
      (fun i cell ->
        match cell with
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Done _ -> ()
        | Pending -> failwith (Printf.sprintf "Pool.map: task %d never completed" i))
      results;
    Array.to_list
      (Array.map (function Done v -> v | Pending | Failed _ -> assert false) results)
  end

let run t thunks = map t (fun f -> f ()) thunks
let tasks t = Atomic.get t.tasks
let batches t = Atomic.get t.batches
let task_counts t = Array.map Atomic.get t.per_domain

(* All pool metrics live in the Wall domain: a sequential driver run spawns
   no pool at all, and which domain drains which task is a scheduler
   accident — so none of this may leak into the deterministic section. *)
let telemetry t =
  let per =
    Array.to_list
      (Array.mapi
         (fun i c -> Telemetry.count ~domain:Telemetry.Wall (Printf.sprintf "pool.tasks_domain%d" i) (Atomic.get c))
         t.per_domain)
  in
  Telemetry.
    [
      gauge ~domain:Wall "pool.domains" t.size;
      count ~domain:Wall "pool.tasks" (Atomic.get t.tasks);
      count ~domain:Wall "pool.batches" (Atomic.get t.batches);
    ]
  @ per

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join workers

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
