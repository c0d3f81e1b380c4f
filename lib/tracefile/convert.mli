(** The text dump and full check of every kind of binary trace file, and
    event-trace repair. The binary container is the one artifact format:
    nothing parses a dump back. *)

(** [binary_to_text src dst] writes, through [Dbi.Atomic_file.write], one
    [Sigil.Event_log.entry_to_string] line per entry of an event trace,
    {!Recording.dump} of a recording or [Sigil.Profile_io.render] of a
    profile, and returns the record count.

    @raise Frame.Corrupt on a damaged file or one that is not a trace
    container (at offset 0); [dst] is then left as it was. *)
val binary_to_text : string -> string -> int

(** [validate r] decodes every record of [r] with its loader's checks.

    @raise Frame.Corrupt on the first damage. *)
val validate : Reader.t -> unit

(** [repair ?chunk_bytes src dst] rewrites a damaged event trace into a clean,
    fully-indexed one: opens [src] with {!Reader.open_salvage}, streams the
    recovered prefix of entries into a fresh writer (preserving the source
    header's options fingerprint and, when the tail survived, its embedded
    symbol/context tables), and returns the salvage report. [dst] is
    written atomically; [src] is untouched.

    @raise Frame.Corrupt when [src]'s header is damaged (nothing to
    salvage) or [src] holds another kind. *)
val repair : ?chunk_bytes:int -> string -> string -> Reader.salvage_report
