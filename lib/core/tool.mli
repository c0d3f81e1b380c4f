(** The Sigil tool.

    Hooks into the DBI machine the way Sigil hooks into Callgrind: it
    receives function names, addresses and operation counts, shadows every
    data byte, and produces the paper's outputs — the per-context aggregate
    {!Profile}, the {!Reuse} statistics (reuse mode), the {!Line_shadow}
    records (line mode), and the sequential {!Event_log} entries (event
    mode), streamed into a caller's sink as the run produces them.

    In line-granularity mode the tool shadows lines instead of bytes and
    skips per-function aggregation, exactly as §IV-B3 describes; the
    byte-level machinery is disabled for that run. *)

type t

(** [create ?options ?event_sink machine] builds the tool state.

    Events flow only through [event_sink]: when one is given, event
    collection is enabled (regardless of [Options.collect_events]) and
    every produced entry is pushed into the sink as the run executes.
    Nothing is buffered in the tool, so memory is bounded by what the sink
    keeps — a streaming sink (e.g. [Tracefile.Writer.sink]) stays bounded
    for arbitrarily long traces.

    @raise Invalid_argument when [Options.collect_events] is set and no
    [event_sink] is given, or when [Options.per_byte_shadow] is set. *)
val create : ?options:Options.t -> ?event_sink:Event_log.sink -> Dbi.Machine.t -> t

(** The callback record to attach to the machine. *)
val tool : t -> Dbi.Tool.t

val options : t -> Options.t
val machine : t -> Dbi.Machine.t

(** Aggregate communication profile (byte mode; empty in line mode). *)
val profile : t -> Profile.t

(** Reuse statistics; meaningful only when [reuse_mode] was set. *)
val reuse : t -> Reuse.t

(** Line records; [None] unless line mode was configured. *)
val line_shadow : t -> Line_shadow.t option

(** {2 Shadow-memory introspection (Fig 6 data)} *)

val shadow_footprint_bytes : t -> int
val shadow_footprint_peak_bytes : t -> int
val shadow_evictions : t -> int

(** Deterministic telemetry for this run: the [shadow.*] samples, the
    [line.*] samples when line mode is active, events dispatched into the
    sink, and the profile's unique/total read bytes. *)
val telemetry : t -> Telemetry.sample list
