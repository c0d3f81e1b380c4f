(** Streaming reader of the binary trace container: the one reader of
    event traces, recordings and profiles (text is an output-only dump,
    see [Convert]).

    Opening a file parses the header, the trailer, the chunk index and the
    embedded symbol/context tables, but no records. {!iter} and {!records}
    then stream the file one chunk at a time, each decoded in place in one
    payload buffer the reader reuses for every section it reads. Opening
    sizes it for the longest chunk, so peak memory is that one buffer
    regardless of file length, and a pass allocates no payload.

    Both ways to open a trace share one forward walk over the section
    framing: {!open_salvage} keeps the longest intact prefix it finds, and
    {!open_file} is salvage that allows no damage. Every structural failure
    raises {!Frame.Corrupt} carrying the file offset of the offending
    section: a file without a trailer is walked at open time and the first
    damaged (or missing) section is named, an index or table that
    disagrees with the trailer (a context's parent must be an older
    context, its function a known symbol) is rejected at open time, and a payload
    whose CRC-32 does not match its header is reported when that chunk is
    decoded. *)

type t

(** [open_file path] opens a complete trace. An intact trailer is trusted:
    the index and tables are checked against it and nothing else is read.
    A file without the trace magic, a text dump included, is corrupt at
    offset 0.

    @raise Frame.Corrupt on a damaged or truncated file.
    @raise Sys_error when the file cannot be read. *)
val open_file : string -> t

(** {2 Salvage}

    Recovery path for traces left behind by a crash (a [.tmp] killed
    mid-write) or damaged afterwards (truncation, bit rot, torn tail). *)

type salvage_report = {
  recovered_entries : int;
  recovered_chunks : int;
  dropped_chunks : int;
      (** chunks present (wholly or partly) in the file but not recovered:
          everything at or past the first damage. Salvage never resumes
          past a gap, so a clean-looking chunk after damage is still
          dropped rather than silently stitched to the prefix. *)
  first_bad_offset : int option;  (** file offset of the first damage; [None] = clean *)
  tail_valid : bool;  (** trailer, tables and chunk index all parsed *)
}

val pp_salvage_report : Format.formatter -> salvage_report -> unit

(** [open_salvage path] opens a possibly-damaged trace, keeping the longest
    prefix of chunks that are wholly present, CRC-clean and decodable. The
    returned reader behaves like one from {!open_file} restricted to that
    prefix (embedded tables are available only when the tail survived);
    the report says what was kept and what was lost. A trace whose
    {e header} is damaged has no trustworthy prefix at all:

    @raise Frame.Corrupt (with the offending offset) on header damage.
    @raise Sys_error when the file cannot be read. *)
val open_salvage : string -> t * salvage_report

val close : t -> unit

(** {2 Metadata (header, trailer, embedded tables)} *)

(** The kind of the file's data sections. *)
val kind : t -> Frame.kind

(** File offset just past the last data section this reader reads. *)
val data_end : t -> int

val version : t -> int

(** The producing run's [Sigil.Options.fingerprint]. *)
val options_tag : t -> string

val chunk_bytes : t -> int
val entry_count : t -> int
val chunk_count : t -> int

(** File offset of each chunk's header, in chunk order (from the index). *)
val chunk_offsets : t -> int list

(** The embedded symbol and context tables ([Dbi.Names.empty] when the
    trace carries none, or when salvage lost the tail). *)
val names : t -> Dbi.Names.t

(** {2 Streaming access} *)

(** [iter t f] decodes every chunk of an event trace in file order and
    applies [f] to each entry. Each entry is lent for the call only, as
    {!Sigil.Event_log.sink} describes: a consumer that keeps one stores
    [Sigil.Event_log.copy] of it. Decoding allocates no entry.

    @raise Frame.Corrupt when [t] is not an event trace. *)
val iter : t -> (Sigil.Event_log.entry -> unit) -> unit

(** [records t kind decode f] applies [f offset (decode payload ~len ~pos)]
    to each record of a [kind] file in order, [offset] being the record's
    file offset. [payload] is the reader's reused buffer: the chunk is its
    first [len] bytes, [decode] must read no further, and what it returns
    must not alias [payload]. A wrong kind, a record [decode] fails on
    or bytes after a chunk's last record raise {!Frame.Corrupt} at their
    offset; a decoder's [Failure] keeps its message as the reason, and
    [Varint.Truncated] reads ["truncated record"]. *)
val records :
  t -> Frame.kind -> (bytes -> len:int -> pos:int ref -> 'a) -> (int -> 'a -> unit) -> unit
