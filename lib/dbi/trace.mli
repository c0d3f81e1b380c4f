(** Record and replay raw guest event streams.

    The paper argues Sigil's profiles only need collecting once because they
    are platform-independent; this module extends that to the raw event
    stream itself: {!recorder} is a tool that serializes every primitive
    event to a file, and {!replay} drives any set of tools from such a file
    on a fresh machine — collect once, analyze offline with any tool, as
    many times as needed.

    The format is line-oriented text, one event per line:

    {v
 E <name>          function enter
 L                 function leave
 R <addr> <size>   data read          W <addr> <size>   data write
 I <count>         integer ops        F <count>         fp ops
 B 0|1             branch (taken?) v}

    Function enters carry names, so traces are self-contained (a stripped
    binary records its degraded ["???:n"] names). System calls appear as
    their expanded pseudo-function events ([E sys:read] ...), so replayed
    contexts are identical to the original run's.

    Replay drives the machine with zero call overhead: the recording
    machine's caller-side overhead ops were captured as explicit [I]
    records, so the replayed clock and per-context costs match the
    original exactly. *)

(** [recorder oc] is a tool that writes every event to [oc]. The caller
    owns the channel and must close it after {!Machine.finish}. *)
val recorder : out_channel -> Machine.t -> Tool.t

(** [record path workload] runs [workload] with only the recorder attached
    and writes the trace to [path] through {!Atomic_file.write}: if the
    workload raises, [path] is not created (an existing one keeps its
    bytes) and no [.tmp] is left. Returns the machine (for counters). *)
val record : string -> (Machine.t -> unit) -> Machine.t

(** [replay ~tools path] reconstructs the guest run from a trace file.

    @raise Failure on a malformed trace, with the offending line number:
    an unparsable record, a non-positive [R]/[W] size, an [R]/[W] range
    outside [\[0, Addr_space.stack_top)], a negative op count, an [L]
    with no live call, or calls still live at the end. *)
val replay : tools:(Machine.t -> Tool.t) list -> string -> Machine.t

(** [replay_events ~tools lines] is {!replay} over in-memory trace lines
    (testing, piping). *)
val replay_events : tools:(Machine.t -> Tool.t) list -> string list -> Machine.t
