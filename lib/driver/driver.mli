(** Convenience runner used by the CLI tools, examples and benchmarks:
    runs a named workload under the requested tool combination and hands
    back the finished tool states. *)

(** Re-export: the suite-run heartbeat lives in the same library. *)
module Progress = Progress

type run = {
  workload : Workloads.Workload.t;
  scale : Workloads.Scale.t;
  machine : Dbi.Machine.t;
  sigil : Sigil.Tool.t option;
  callgrind : Callgrind.Tool.t option;
  elapsed_s : float; (** host seconds for the instrumented run *)
  stats : Telemetry.snapshot option;
      (** run telemetry, assembled at run end when [Options.collect_stats]
          was set: the machine's [machine.*] samples, the Sigil tool's
          [shadow.*]/[line.*]/[events.*]/[profile.*] samples, and the
          wall-clock [run.elapsed_s]. The deterministic section is
          bit-identical between sequential and pooled executions of the
          same job. *)
}

(** [run_workload ?options ?event_sink ?with_sigil ?with_callgrind
    ?stripped w scale] executes one guest run with the selected tools
    attached. [event_sink] streams produced events out of the tool as the
    run executes (see [Sigil.Tool.create]); a sink is stateful, so give
    each run its own. [on_start] fires once the machine exists and tools
    are attached, just before the workload runs — the progress heartbeat
    hooks in here. *)
val run_workload :
  ?options:Sigil.Options.t ->
  ?event_sink:Sigil.Event_log.sink ->
  ?with_sigil:bool ->
  ?with_callgrind:bool ->
  ?stripped:bool ->
  ?on_start:(Dbi.Machine.t -> Sigil.Tool.t option -> unit) ->
  Workloads.Workload.t ->
  Workloads.Scale.t ->
  run

(** {2 Batch execution}

    One evaluation sweep = many independent [(workload, scale, options)]
    runs. [run_many] fans a batch out over a {!Pool} (when one is
    given) and hands the results back {e in submission order}; because every
    run's machine, tool and PRNG state is run-local, the parallel results
    are bit-identical to a sequential loop over the same jobs. *)

(** Structured description of one failed job, as {!run_many} returns it. *)
module Run_error : sig
  type cause =
    | Raised of string  (** [Printexc.to_string] of the escaping exception *)
    | Timeout of { limit_s : float; now : int }
        (** wall-clock guard tripped ([Options.timeout_s]) *)
    | Budget_exhausted of { budget : int; now : int }
        (** instruction-budget guard tripped ([Options.instr_budget]) *)

  type t = {
    workload : string;  (** workload name (as submitted) *)
    scale : Workloads.Scale.t;
    cause : cause;
    backtrace : string;  (** raw backtrace at the raise point; may be empty *)
  }

  (** One-line ["name@scale: cause"] rendering for logs and CLI output. *)
  val to_string : t -> string
end

type job

(** [job ?options ?event_sink ?with_sigil ?with_callgrind ?stripped w
    scale] describes one run without executing it (defaults as
    {!run_workload}). *)
val job :
  ?options:Sigil.Options.t ->
  ?event_sink:Sigil.Event_log.sink ->
  ?with_sigil:bool ->
  ?with_callgrind:bool ->
  ?stripped:bool ->
  Workloads.Workload.t ->
  Workloads.Scale.t ->
  job

(** [run_many ?pool ?progress jobs] executes the batch ([pool = None] runs
    in the calling domain) and returns results in submission order. A job
    whose run raises comes back as [Error] and every other job runs to
    completion; surviving runs are bit-identical to a batch that never
    contained the crasher. [progress] reports each job's start/finish (and
    live clock, via the run-start hook) to a {!Progress.t} heartbeat; it
    never influences results. *)
val run_many :
  ?pool:Pool.t -> ?progress:Progress.t -> job list -> (run, Run_error.t) result list

(** [time_native w scale] is the uninstrumented baseline run time. *)
val time_native : Workloads.Workload.t -> Workloads.Scale.t -> float

(** [sigil run] / [callgrind run] extract tool state, failing loudly when
    the tool was not attached. *)
val sigil : run -> Sigil.Tool.t

val callgrind : run -> Callgrind.Tool.t

(** Telemetry aggregation and the [--stats-out] JSON artifact. *)
module Stats : sig
  (** [of_run r] is the run's snapshot ([Telemetry.empty] when the job ran
      without [Options.collect_stats]). *)
  val of_run : run -> Telemetry.snapshot

  (** [aggregate ?pool results] folds every successful run's snapshot in
      submission order (merge is associative and commutative, so the result
      is independent of execution interleaving), adds the deterministic
      suite-shape counters [suite.runs] / [suite.failures], and appends the
      pool's wall-clock accounting when a pool was used. *)
  val aggregate : ?pool:Pool.t -> (run, Run_error.t) result list -> Telemetry.snapshot

  (** [to_json ?wall ?pool ~scale named_results] renders the
      ["sigil-stats/1"] document (see docs/FORMATS.md): schema tag, scale,
      one entry per run in submission order, and the aggregate.
      [wall = false] omits every wall-clock section, making the bytes a
      pure function of the deterministic metrics — two files from a [-j 1]
      and a [-j 8] run of the same suite compare equal with [cmp]. *)
  val to_json :
    ?wall:bool ->
    ?pool:Pool.t ->
    scale:Workloads.Scale.t ->
    (string * (run, Run_error.t) result) list ->
    string

  (** [write_json ?wall ?pool ~scale named_results path] writes {!to_json}
      crash-safely, through [Dbi.Atomic_file.write]. *)
  val write_json :
    ?wall:bool ->
    ?pool:Pool.t ->
    scale:Workloads.Scale.t ->
    (string * (run, Run_error.t) result) list ->
    string ->
    unit
end
