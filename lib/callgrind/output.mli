(** Callgrind output-file writer.

    Serializes a finished run in the callgrind profile format (the format
    callgrind_annotate and KCachegrind read): an [events:] header naming
    the counters, one [fn=] block per calling context with its self cost
    line, and [cfn=]/[calls=] records for every call edge with the
    callee's inclusive cost. Positions are synthetic (one "line" per
    context) since guests have no source files. *)

(** The event counters written, in column order. *)
val events : string list

(** [write tool ppf] emits the profile. *)
val write : Tool.t -> Format.formatter -> unit

(** [save tool path] writes to a file crash-safely, through
    [Dbi.Atomic_file.write]. *)
val save : Tool.t -> string -> unit
