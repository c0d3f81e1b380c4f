(** Suite-run heartbeat.

    Long sweeps (13 workloads x simlarge) are silent for minutes; this
    reporter prints what is running, how far along the retired-instruction
    clock is, shadow evictions so far, and an ETA extrapolated from the
    jobs already finished.

    Two rendering modes, chosen at {!create} time from
    [Unix.isatty stderr]:

    - {b tty}: a single live status line, redrawn in place at most every
      0.5 s and erased at {!close};
    - {b plain} (stderr redirected to a file or CI log): one start line and
      one finish line per job, no control characters.

    Nothing runs beside the jobs. {!attach} registers a
    {!Dbi.Machine.on_epoch} hook, so each job samples its own clock and
    eviction count on its own domain every 2^16 retired instructions, and
    redraws the tty line from there. Every sample, count and write to
    stderr happens under one lock. Progress output never feeds results or
    telemetry snapshots; determinism is untouched. *)

type t

(** A job registered with {!start}. *)
type handle

(** [create ~total ()] builds a reporter for a batch of [total] jobs. *)
val create : total:int -> unit -> t

(** [start t ~workload ~scale] registers a job as running: plain mode
    prints its start line, tty mode redraws. Call it from the domain that
    runs the job. *)
val start : t -> workload:string -> scale:string -> handle

(** [attach t h machine sigil] hooks the job's machine (and tool, when
    Sigil is attached) to sample instructions and evictions at each
    epoch; wired through the [on_start] hook of [Dbi.Runner.run]. *)
val attach : t -> handle -> Dbi.Machine.t -> Sigil.Tool.t option -> unit

(** [finish t h ~ok] marks the job done, reading its final clock and
    evictions; plain mode prints them, tty mode redraws. Call it from the
    domain that ran the job. *)
val finish : t -> handle -> ok:bool -> unit

(** [close t] erases the live line. Idempotent. *)
val close : t -> unit
