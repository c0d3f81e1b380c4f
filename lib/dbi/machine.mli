(** The instrumentable guest machine.

    Owns the symbol table, calling-context tree, address space, the
    platform-independent clock, and the list of attached tools. Guest
    workloads drive it through {!Guest}; tools observe it through their
    callbacks and may query the tables here.

    The clock ({!now}) counts retired guest "instructions": one per
    computational operation, one per memory access, one per branch. The
    paper uses exactly this proxy ("we use the number of retired
    instructions as a proxy for execution time"). *)

type t

(** {2 Run guards}

    Long or runaway guest runs can be bounded in two ways: a cap on the
    retired-instruction clock and a wall-clock timeout. Both raise out of
    the event-injection call that crossed the limit, so [Driver.run_many]
    captures them as structured per-job errors while the remaining jobs of
    its batch proceed. The timeout, like anything else that watches a run
    (the driver's progress heartbeat), is an epoch hook ({!on_epoch}). *)

exception Budget_exhausted of { budget : int; now : int }
(** The retired-instruction clock passed the configured budget. *)

exception Timeout of { limit_s : float; now : int }
(** The run held the host CPU longer than the configured wall-clock limit
    (checked at each epoch, so the overshoot is tiny). *)

(** [on_epoch t hook] runs [hook t] on the running domain at the next
    clock-advancing event, then at the first such event at or past each
    multiple of 2^16 on the clock, so a hook sees the same clock values on
    every run; an event that crosses several multiples fires it once. Hooks
    run in registration order; an exception a hook raises escapes from the
    event call, aborting the run. *)
val on_epoch : t -> (t -> unit) -> unit

(** [monotonic_s ()] is a monotonic wall-clock reading in seconds
    (CLOCK_MONOTONIC; an arbitrary epoch, so only differences are
    meaningful). Unlike [Unix.gettimeofday] it never goes backwards under
    NTP adjustment — the timeout guard, the runner's elapsed time, the
    progress heartbeat and the benchmark harness all read this clock. *)
val monotonic_s : unit -> float

(** Aggregate event counters, available even with no tool attached (the
    "native" run of the overhead experiments still knows its own size). *)
type counters = {
  int_ops : int;
  fp_ops : int;
  reads : int; (* read events *)
  writes : int; (* write events *)
  read_bytes : int;
  written_bytes : int;
  branches : int;
  calls : int;
  syscalls : int;
}

(** [create ~stripped ~call_overhead ~budget ~timeout_s ()] builds a fresh
    machine with no tools attached. [stripped] simulates a binary without
    debug symbols; [call_overhead] (default 10) is the caller-side
    instruction cost of a call sequence (argument setup, save/restore),
    charged to the caller's context before each [enter] — this is what
    bounds function-level parallelism the way real call overhead does.
    [budget] arms the retired-instruction guard ({!Budget_exhausted});
    [timeout_s] registers the wall-clock guard ({!Timeout}), measured from
    machine creation, as an epoch hook. *)
val create : ?stripped:bool -> ?call_overhead:int -> ?budget:int -> ?timeout_s:float -> unit -> t

(** [attach t tool] adds a tool; events flow to tools in attachment order. *)
val attach : t -> Tool.t -> unit

val symbols : t -> Symbol.t
val contexts : t -> Context.t
val space : t -> Addr_space.t

(** Current value of the retired-instruction clock. *)
val now : t -> int

(** Context currently executing (callee of the innermost live call). *)
val current_ctx : t -> Context.id

(** [call_number t ctx] is the sequence number of the latest call of [ctx]
    (0 when never called). *)
val call_number : t -> Context.id -> int

val counters : t -> counters

(** Depth of the live call stack. *)
val stack_depth : t -> int

(** {2 Event injection}

    Used by {!Guest}; exposed so tests can drive a machine directly. *)

(** [enter t name] pushes a call to function [name]; returns its context. *)
val enter : t -> string -> Context.id

(** [leave t] pops the innermost call.

    @raise Invalid_argument if the stack is empty. *)
val leave : t -> unit

(** [read t addr size] / [write t addr size] inject a data access from the
    current context. [size] must be positive. *)
val read : t -> int -> int -> unit

val write : t -> int -> int -> unit

(** [op t kind count] injects [count] >= 0 computational operations. *)
val op : t -> Event.op_kind -> int -> unit

val branch : t -> taken:bool -> unit

(** [syscall t name ~reads ~writes] models an opaque kernel crossing: a
    pseudo-function ["sys:" ^ name] is entered, consumes [reads], produces
    [writes], and leaves. *)
val syscall : t -> string -> reads:Event.byte_range list -> writes:Event.byte_range list -> unit

(** [finish t] signals end-of-program to every tool (idempotent).

    @raise Invalid_argument if calls are still live. *)
val finish : t -> unit

(** [is_syscall_fn name] recognizes the pseudo-function naming convention. *)
val is_syscall_fn : string -> bool

(** Deterministic [machine.*] telemetry samples: the retired-instruction
    clock, every aggregate event counter, and the context/symbol table
    sizes. *)
val telemetry : t -> Telemetry.sample list
