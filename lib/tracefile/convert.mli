(** The text dump of a binary trace, and trace repair.

    The binary trace is the one event file: no tool reads any other.
    {!binary_to_text} prints one [Sigil.Event_log.entry_to_string] line
    per entry, for people and for [diff]; nothing parses it back. *)

(** [binary_to_text src dst] streams in bounded memory, writes [dst]
    through [Dbi.Atomic_file.write] and returns the entry count.

    @raise Frame.Corrupt on a damaged binary trace or a file that is not
    one (at offset 0); [dst] is then left as it was. *)
val binary_to_text : string -> string -> int

(** [repair ?chunk_bytes src dst] rewrites a damaged trace into a clean,
    fully-indexed one: opens [src] with {!Reader.open_salvage}, streams the
    recovered prefix of entries into a fresh writer (preserving the source
    header's options fingerprint and, when the tail survived, its embedded
    symbol/context tables), and returns the salvage report. [dst] is
    written atomically; [src] is untouched.

    @raise Frame.Corrupt when [src]'s header is damaged (nothing to
    salvage). *)
val repair : ?chunk_bytes:int -> string -> string -> Reader.salvage_report
