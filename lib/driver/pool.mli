(** Fixed-size domain pool with a shared work queue.

    The evaluation sweep (13 workloads x scales x tool configurations) is a
    bag of independent instrumented runs: each owns its own {!Dbi.Machine},
    tool state and PRNG, so fanning them across OCaml 5 domains changes
    wall-clock only, never results. This pool is the one parallel-execution
    primitive in the tree; {!Driver.run_many} and the benchmark harness
    share it.

    Determinism contract: {!map} and {!run} return results in submission
    order regardless of which domain executed what, and raise the {e first}
    (by submission index) exception a task raised, with its original
    backtrace. Submitting pure tasks therefore yields output bit-identical
    to a sequential [List.map].

    The submitting domain is a worker too: while it waits for a batch it
    drains the shared queue, so a pool of [domains = n] applies exactly [n]
    domains' worth of compute to a batch, [create ~domains:1 ()] degrades to
    a plain sequential map without spawning, and nested [map] calls (a task
    that itself maps over the same pool) cannot deadlock. *)

type t

(** [create ~domains ()] spawns [domains - 1] worker domains (the caller is
    the last one). Default: {!recommended}.

    @raise Invalid_argument if [domains < 1]. *)
val create : ?domains:int -> unit -> t

(** [recommended ()] is [Domain.recommended_domain_count] capped at 8
    and floored at 1 — the default pool size everywhere a [--domains]
    flag is left unset. *)
val recommended : unit -> int

(** Number of domains the pool applies to a batch (including the caller). *)
val size : t -> int

(** [map pool f items] runs [f] on every item concurrently and returns the
    results in submission order. Re-raises the first failing item's
    exception. Safe to call from inside a pool task (the nested batch is
    drained by the same domains).

    Failure semantics (no deadlock): a raising task never aborts, skips or
    blocks the rest of its batch — every submitted task runs exactly once,
    [map] only returns (or re-raises) after all of them have completed,
    and the pool remains usable for subsequent batches. The exception
    re-raised is the first one {e by submission index}, not by wall-clock
    order, with the raising task's original backtrace. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [run pool thunks] is [map pool (fun f -> f ()) thunks]. *)
val run : t -> (unit -> 'a) list -> 'a list

(** {2 Accounting}

    The pool counts work with atomics preallocated at {!create}; the
    per-task cost is two fetch-and-adds and a domain-local read, with no
    allocation on the task path (asserted by [test_pool.ml] with
    [Gc.minor_words]). *)

(** Tasks executed over the pool's lifetime. *)
val tasks : t -> int

(** [map]/[run] batches submitted. *)
val batches : t -> int

(** Per-domain task counts: slot 0 is the submitting (caller) domain, slots
    [1 .. size-1] the spawned workers. Sums to {!tasks}. *)
val task_counts : t -> int array

(** [pool.*] telemetry samples. All of them are wall-clock domain: which
    domain drains which task is a host scheduling accident, and a
    sequential run has no pool at all, so none of this may appear in the
    deterministic section. *)
val telemetry : t -> Telemetry.sample list

(** [shutdown pool] drains nothing: it asks idle workers to exit and joins
    them. Calling {!map} afterwards raises; shutdown is idempotent. *)
val shutdown : t -> unit

(** [with_pool ?domains f] runs [f pool] and shuts the pool down on the way
    out (including on exceptions). *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a
