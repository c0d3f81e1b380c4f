(** The Callgrind baseline tool.

    Captures a context-keyed cost tree for the running guest: instruction
    counts (with the paper's added int/FP operation logging), on-the-fly
    cache simulation for instruction fetches and data accesses, and branch
    prediction. This is the profiler Sigil is compared against in the
    overhead experiments and the source of the software-time estimate
    [t_sw] used for partitioning. *)

type t

(** [create ?cache_config machine] builds the tool state bound to
    [machine]. *)
val create : ?cache_config:Cachesim.Hierarchy.config -> Dbi.Machine.t -> t

(** [tool t] is the callback record to attach to the machine. *)
val tool : t -> Dbi.Tool.t

(** [cost t ctx] is the self cost accumulated for context [ctx] (a zero
    record if the context never executed). The returned record is live;
    callers must not mutate it. *)
val cost : t -> Dbi.Context.id -> Cost.t

(** [inclusive_cost t ctx] sums [cost] over [ctx] and all its descendants
    in the context tree. *)
val inclusive_cost : t -> Dbi.Context.id -> Cost.t

(** [total t] is the whole-program cost (inclusive cost of the root). *)
val total : t -> Cost.t

val machine : t -> Dbi.Machine.t
