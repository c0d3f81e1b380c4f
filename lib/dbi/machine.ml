exception Budget_exhausted of { budget : int; now : int }
exception Timeout of { limit_s : float; now : int }

let () =
  Printexc.register_printer (function
    | Budget_exhausted { budget; now } ->
      Some (Printf.sprintf "Dbi.Machine.Budget_exhausted (budget %d, clock %d)" budget now)
    | Timeout { limit_s; now } ->
      Some (Printf.sprintf "Dbi.Machine.Timeout (limit %gs, clock %d)" limit_s now)
    | _ -> None)

external monotonic_ns : unit -> int64 = "dbi_monotonic_ns"

let monotonic_s () = Int64.to_float (monotonic_ns ()) /. 1e9

type counters = {
  int_ops : int;
  fp_ops : int;
  reads : int;
  writes : int;
  read_bytes : int;
  written_bytes : int;
  branches : int;
  calls : int;
  syscalls : int;
}

type t = {
  symbols : Symbol.t;
  contexts : Context.t;
  space : Addr_space.t;
  call_overhead : int;
  mutable tools : Tool.t array; (* capacity; slots [0, n_tools) are live *)
  mutable n_tools : int;
  (* the live call stack, innermost call in slot [depth - 1]: parallel
     int columns that grow by doubling, so a call allocates nothing *)
  mutable stack_ctx : Context.id array;
  mutable stack_fn : Symbol.id array;
  mutable depth : int;
  mutable cur_ctx : Context.id;
  mutable call_numbers : int array; (* per context, grown on demand *)
  mutable now : int;
  mutable int_ops : int;
  mutable fp_ops : int;
  mutable reads : int;
  mutable writes : int;
  mutable read_bytes : int;
  mutable written_bytes : int;
  mutable branches : int;
  mutable calls : int;
  mutable syscalls : int;
  mutable finished : bool;
  budget : int; (* max_int = unlimited *)
  mutable hooks : (t -> unit) list; (* epoch hooks, in registration order *)
  mutable fresh : (t -> unit) list; (* hooks registered since the last check *)
  mutable next_epoch : int; (* the next multiple of 2^16 on the clock *)
  mutable next_check : int; (* clock value at which to re-check the guards and hooks *)
}

(* Epochs are 2^16 clock ticks: rare enough that a hook (a wall-clock
   read, a progress sample) never shows up in the event hot path, frequent
   enough that a runaway guest is caught within a fraction of a second. *)
let epoch_mask = (1 lsl 16) - 1

let on_epoch t hook =
  t.fresh <- t.fresh @ [ hook ];
  t.next_check <- min t.next_check (t.now + 1)

(* The wall-clock guard is an epoch hook like any other. *)
let timeout_hook limit_s =
  let started_s = monotonic_s () in
  fun t -> if monotonic_s () -. started_s > limit_s then raise (Timeout { limit_s; now = t.now })

let initial_stack = 64

let create ?(stripped = false) ?(call_overhead = 10) ?budget ?timeout_s () =
  (match budget with
  | Some b when b <= 0 -> invalid_arg "Machine.create: budget must be positive"
  | Some _ | None -> ());
  (match timeout_s with
  | Some s when s < 0.0 -> invalid_arg "Machine.create: negative timeout"
  | Some _ | None -> ());
  if call_overhead < 0 then invalid_arg "Machine.create: negative call overhead";
  let budget = Option.value budget ~default:max_int in
  let fresh = Option.to_list (Option.map timeout_hook timeout_s) in
  {
    symbols = Symbol.create ~stripped ();
    contexts = Context.create ();
    space = Addr_space.create ();
    call_overhead;
    tools = [||];
    n_tools = 0;
    stack_ctx = Array.make initial_stack 0;
    stack_fn = Array.make initial_stack 0;
    depth = 0;
    cur_ctx = Context.root;
    call_numbers = Array.make 256 0;
    now = 0;
    int_ops = 0;
    fp_ops = 0;
    reads = 0;
    writes = 0;
    read_bytes = 0;
    written_bytes = 0;
    branches = 0;
    calls = 0;
    syscalls = 0;
    finished = false;
    budget;
    hooks = [];
    fresh;
    next_epoch = epoch_mask + 1;
    next_check = (if fresh = [] then budget else 1);
  }

(* One [now >= next_check] comparison per clock bump is all the guards
   and hooks cost; this slow path runs only at the budget boundary, at
   epoch boundaries and at the first event after a hook is registered.
   The next epoch is the next multiple of 2^16 above [now], so hooks see
   the same clock values on every run, and an event that crosses several
   multiples fires them once. *)
let check_limits t =
  if t.now > t.budget then raise (Budget_exhausted { budget = t.budget; now = t.now });
  let due = (if t.now >= t.next_epoch then t.hooks else []) @ t.fresh in
  t.next_epoch <- (t.now lor epoch_mask) + 1;
  t.hooks <- t.hooks @ t.fresh;
  t.fresh <- [];
  t.next_check <- (if t.hooks = [] then t.budget else min t.budget t.next_epoch);
  List.iter (fun hook -> hook t) due

(* Amortized growth: attaching is O(1) amortized instead of copying the
   whole array per tool, so attach-heavy drivers (one tool per run times
   thousands of runs) stay linear. *)
let attach t tool =
  let cap = Array.length t.tools in
  if t.n_tools = cap then begin
    let grown = Array.make (max 4 (2 * cap)) tool in
    Array.blit t.tools 0 grown 0 cap;
    t.tools <- grown
  end;
  t.tools.(t.n_tools) <- tool;
  t.n_tools <- t.n_tools + 1
let symbols t = t.symbols
let contexts t = t.contexts
let space t = t.space
let now t = t.now
let current_ctx t = t.cur_ctx

let call_number t ctx =
  if ctx < Array.length t.call_numbers then t.call_numbers.(ctx) else 0

let counters t =
  {
    int_ops = t.int_ops;
    fp_ops = t.fp_ops;
    reads = t.reads;
    writes = t.writes;
    read_bytes = t.read_bytes;
    written_bytes = t.written_bytes;
    branches = t.branches;
    calls = t.calls;
    syscalls = t.syscalls;
  }

let stack_depth t = t.depth

let bump_call t ctx =
  let len = Array.length t.call_numbers in
  if ctx >= len then begin
    let grown = Array.make (max (2 * len) (ctx + 1)) 0 in
    Array.blit t.call_numbers 0 grown 0 len;
    t.call_numbers <- grown
  end;
  let n = t.call_numbers.(ctx) + 1 in
  t.call_numbers.(ctx) <- n;
  n

let op t kind count =
  if count < 0 then invalid_arg "Machine.op: negative count";
  if count > 0 then begin
    t.now <- t.now + count;
    if t.now >= t.next_check then check_limits t;
    (match kind with
    | Event.Int_op -> t.int_ops <- t.int_ops + count
    | Event.Fp_op -> t.fp_ops <- t.fp_ops + count);
    let ctx = t.cur_ctx in
    let tools = t.tools and n = t.n_tools in
    for i = 0 to n - 1 do
      tools.(i).on_op ~ctx ~kind ~count
    done
  end

let enter t name =
  (* caller-side call sequence: argument setup, save/restore, the call
     itself — charged to the caller's context like compiled code would *)
  if t.call_overhead > 0 then op t Event.Int_op t.call_overhead;
  let fn = Symbol.intern t.symbols name in
  let ctx = Context.enter t.contexts t.cur_ctx fn in
  let call = bump_call t ctx in
  let d = t.depth in
  if d = Array.length t.stack_ctx then begin
    let grow a =
      let grown = Array.make (2 * d) 0 in
      Array.blit a 0 grown 0 d;
      grown
    in
    t.stack_ctx <- grow t.stack_ctx;
    t.stack_fn <- grow t.stack_fn
  end;
  t.stack_ctx.(d) <- ctx;
  t.stack_fn.(d) <- fn;
  t.depth <- d + 1;
  t.cur_ctx <- ctx;
  t.calls <- t.calls + 1;
  let tools = t.tools and n = t.n_tools in
  for i = 0 to n - 1 do
    tools.(i).on_enter ~ctx ~fn ~call
  done;
  ctx

let leave t =
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Machine.leave: empty call stack";
  let ctx = t.stack_ctx.(d) and fn = t.stack_fn.(d) in
  let tools = t.tools and n = t.n_tools in
  for i = 0 to n - 1 do
    tools.(i).on_leave ~ctx ~fn
  done;
  t.depth <- d;
  t.cur_ctx <- (if d = 0 then Context.root else t.stack_ctx.(d - 1))

let read t addr size =
  if size <= 0 then invalid_arg "Machine.read: size must be positive";
  t.now <- t.now + 1;
  if t.now >= t.next_check then check_limits t;
  t.reads <- t.reads + 1;
  t.read_bytes <- t.read_bytes + size;
  let ctx = t.cur_ctx in
  let tools = t.tools and n = t.n_tools in
  for i = 0 to n - 1 do
    tools.(i).on_read ~ctx ~addr ~size
  done

let write t addr size =
  if size <= 0 then invalid_arg "Machine.write: size must be positive";
  t.now <- t.now + 1;
  if t.now >= t.next_check then check_limits t;
  t.writes <- t.writes + 1;
  t.written_bytes <- t.written_bytes + size;
  let ctx = t.cur_ctx in
  let tools = t.tools and n = t.n_tools in
  for i = 0 to n - 1 do
    tools.(i).on_write ~ctx ~addr ~size
  done

let branch t ~taken =
  t.now <- t.now + 1;
  if t.now >= t.next_check then check_limits t;
  t.branches <- t.branches + 1;
  let ctx = t.cur_ctx in
  let tools = t.tools and n = t.n_tools in
  for i = 0 to n - 1 do
    tools.(i).on_branch ~ctx ~taken
  done

let syscall_prefix = "sys:"
let is_syscall_fn name = String.length name > 4 && String.sub name 0 4 = syscall_prefix

(* Chunk large kernel buffers so per-access sizes stay word-like; the byte
   totals are what matters to the tools. *)
let access_chunk = 8

let syscall t name ~reads ~writes =
  (* validate both lists in place; appending them allocated a throwaway
     list on every kernel crossing *)
  let check r = if not (Event.range_valid r) then invalid_arg "Machine.syscall: bad range" in
  List.iter check reads;
  List.iter check writes;
  t.syscalls <- t.syscalls + 1;
  let (_ : Context.id) = enter t (syscall_prefix ^ name) in
  let touch inject (addr, len) =
    let rec go addr len =
      if len > 0 then begin
        let n = min access_chunk len in
        inject t addr n;
        go (addr + n) (len - n)
      end
    in
    go addr len
  in
  List.iter (touch read) reads;
  List.iter (touch write) writes;
  leave t

let telemetry t =
  Telemetry.
    [
      count "machine.instructions" t.now;
      count "machine.int_ops" t.int_ops;
      count "machine.fp_ops" t.fp_ops;
      count "machine.reads" t.reads;
      count "machine.writes" t.writes;
      count "machine.read_bytes" t.read_bytes;
      count "machine.written_bytes" t.written_bytes;
      count "machine.branches" t.branches;
      count "machine.calls" t.calls;
      count "machine.syscalls" t.syscalls;
      gauge "machine.contexts" (Context.count t.contexts);
      gauge "machine.symbols" (Symbol.count t.symbols);
    ]

let finish t =
  if t.depth > 0 then invalid_arg "Machine.finish: calls still live";
  if not t.finished then begin
    t.finished <- true;
    for i = 0 to t.n_tools - 1 do
      t.tools.(i).Tool.on_finish ()
    done
  end
