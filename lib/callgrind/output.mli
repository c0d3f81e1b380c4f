(** Callgrind's part of a profile: per-context costs in the columns
    {!events}, and the callgrind output format rendered from them.

    The format is the one callgrind_annotate and KCachegrind read: an
    [events:] header naming the counters, one [fn=] block per calling
    context with its self cost line, and [cfn=]/[calls=] records for every
    call edge with the callee's inclusive cost. Positions are synthetic
    (one "line" per context) since guests have no source files. *)

(** The event counters, in column order. *)
val events : string array

(** Self costs by context: [costs.(ctx)] holds one value per column of
    {!events}. *)
type costs = int array array

(** [row c] is [c] in the columns {!events}. *)
val row : Cost.t -> int array

(** [cost t ctx] is row [ctx] of [t] (zero operation mix and calls).
    @raise Invalid_argument if the row's length is not {!events}'. *)
val cost : costs -> Dbi.Context.id -> Cost.t

(** [write names ~calls t ppf] emits the profile of the run whose context
    tree is [names]; [calls ctx] is the number of times [ctx] was entered. *)
val write : Dbi.Names.t -> calls:(Dbi.Context.id -> int) -> costs -> Format.formatter -> unit

(** [save names ~calls t path] writes {!write}'s output to a file
    crash-safely, through [Dbi.Atomic_file.write]. *)
val save : Dbi.Names.t -> calls:(Dbi.Context.id -> int) -> costs -> string -> unit
