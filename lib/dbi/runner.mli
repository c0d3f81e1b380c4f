(** Drive a guest program under a set of tools.

    The moral equivalent of [valgrind --tool=... ./prog]: build a machine,
    construct and attach each requested tool, run the workload, signal
    finish, and report how long the (host) run took so instrumentation
    overheads can be compared. *)

type result = {
  machine : Machine.t;
  elapsed_s : float; (** host wall-clock seconds for the guest run *)
}

(** [monotonic_s ()] is a monotonic wall-clock reading in seconds
    (CLOCK_MONOTONIC; an arbitrary epoch, so only differences are
    meaningful). Unlike [Unix.gettimeofday] it never goes backwards under
    NTP adjustment — every elapsed-time measurement in the runner and the
    benchmark harness uses this. *)
val monotonic_s : unit -> float

(** [run ~stripped ~tools workload] executes [workload machine] with every
    tool in [tools] attached (tool constructors receive the machine first,
    Valgrind-style). [Machine.finish] is called on normal return.
    [budget] / [timeout_s] arm the machine's run guards; when a guard
    trips, the corresponding {!Machine.Budget_exhausted} or
    {!Machine.Timeout} escapes from this call. [on_start] is invoked with
    the machine after the tools attach and before the workload begins —
    a progress reporter registers its {!Machine.on_epoch} hook there. *)
val run :
  ?stripped:bool ->
  ?call_overhead:int ->
  ?budget:int ->
  ?timeout_s:float ->
  ?tools:(Machine.t -> Tool.t) list ->
  ?on_start:(Machine.t -> unit) ->
  (Machine.t -> unit) ->
  result

(** [time_native workload] is [run ~tools:[]], the uninstrumented baseline. *)
val time_native : (Machine.t -> unit) -> result
