(** Sigil run-time options (the tool's command-line switches). *)

type t = {
  reuse_mode : bool;
      (** extend shadow objects with re-use count and lifetime variables
          (Table I, "Additional variables for Reuse mode") *)
  collect_events : bool;
      (** record the sequential event file alongside aggregates; the
          entries stream into the event sink [Tool.create] requires with
          this option, and the flag is part of {!fingerprint}, so trace
          headers name the run's mode *)
  line_size : int option;
      (** shadow cache lines of this many bytes instead of single bytes
          (line-granularity mode, §IV-B3); [None] = byte granularity *)
  max_chunks : int option;
      (** memory-limit parameter: cap on live second-level shadow chunks,
          freed FIFO ("free up space from shadow bytes of addresses that
          have been least recently touched"); [None] = unlimited *)
  per_byte_shadow : bool;
      (** always [false]: {!Tool.create} rejects a set value. The per-byte
          shadow engine is gone; the differential oracle for the shadow is
          the spec in [test/sigil_spec.ml]. The field stays only because
          perfbench reads it and its [per_byte=false] token is in every
          trace header ({!fingerprint}), so its trace sizes depend on it;
          both go with the benchmark change that rewrites
          [perfbench/references.json]. *)
  instr_budget : int option;
      (** fault-isolation guard: abort the run (raising
          [Dbi.Machine.Budget_exhausted]) once the retired-instruction
          clock exceeds this many instructions; [None] = unlimited *)
  timeout_s : float option;
      (** fault-isolation guard: abort the run (raising
          [Dbi.Machine.Timeout]) once it has held the host CPU for this
          many wall-clock seconds; [None] = no timeout *)
  collect_stats : bool;
      (** assemble a {!Telemetry.snapshot} for the run (the probes
          themselves are always on; this only controls whether the driver
          gathers them at run end). Never affects profile or trace content,
          so it is deliberately absent from {!fingerprint}. *)
}

(** Baseline profiling: no reuse stats, no events, byte granularity,
    unlimited shadow memory. *)
val default : t

val with_reuse : t -> t
val with_stats : t -> t
val with_events : t -> t
val with_line_size : t -> int -> t
val with_max_chunks : t -> int -> t
val with_instr_budget : t -> int -> t
val with_timeout : t -> float -> t

(** [fingerprint t] is a stable one-line rendering of every switch,
    embedded in trace-file headers so a post-processing tool can tell which
    configuration produced a trace. *)
val fingerprint : t -> string
