(** On-disk layout constants, section kinds and the chunk-level entry
    codec of the binary trace container (documented in docs/FORMATS.md §6).

    A file is: an 8-byte magic + version + options-fingerprint header; a
    sequence of framed sections (fixed 16-byte header carrying a section
    magic, record count, payload length and CRC-32, followed by the
    varint-coded payload); the symbol and context tables; a section index;
    and a fixed 32-byte trailer locating the tables and index from the end
    of the file. Every data section of one file has the same {!kind}, and
    each decodes independently of the others. *)

exception Corrupt of { offset : int; reason : string }
(** Raised by readers on any structural damage. [offset] is the file offset
    of the offending chunk (or region), never a generic position. *)

val corrupt : offset:int -> string -> 'a

val magic : string (** 8 bytes, start of file *)

val trailer_magic : string (** 8 bytes, end of file *)

val version : int
val chunk_magic : int (** u32 framing each chunk header *)

(** What a file's data chunks hold, by chunk magic: events ("SGCH", the
    entry codec below), a recording ("SGRC") or a profile ("SGPF"). *)
type kind = Events | Recording | Profile

val section_magic : kind -> int
val kind_of_magic : int -> kind option

val kind_name : kind -> string

val ckpt_magic : int
(** u32 framing an index-checkpoint section. Checkpoints share the data
    chunks' 16-byte header layout ([ckpt_magic], count, payload length,
    CRC-32) but carry the chunk index accumulated so far instead of
    entries. No reader decodes that payload: readers skip checkpoints, and
    salvage checks their CRC and walks past intact ones. The writer flushes
    after each one, which is what bounds how much a SIGKILL can lose. *)

val chunk_header_bytes : int
val trailer_bytes : int
val default_chunk_bytes : int (** target payload size per chunk *)

val default_checkpoint_every : int
(** data chunks between two index checkpoints (writer default) *)

(** {2 Little-endian fixed-width helpers} *)

val add_u32 : Buffer.t -> int -> unit
val add_u64 : Buffer.t -> int -> unit
val get_u32 : bytes -> int -> int
val get_u64 : bytes -> int -> int

(** {2 Entry codec}

    One tag byte per entry, then varints; context and call fields are
    zigzag deltas against a per-chunk running (ctx, call) pair, which a
    transfer record rebases to its destination (the consuming call). The
    tag byte also carries flag bits eliding the common cases: [samepos]
    (the entry's (ctx, call) equal the running pair — no position varints
    follow), [stackpos] (they equal the tracked open frame instead — the
    codec mirrors Call/Ret nesting, so a parent resuming after a return
    costs no position bytes), [omit] (a computation's fp op count is zero
    / a transfer is all-unique — the field is not written), [samesrc]
    (the producer repeats the previous transfer's — otherwise it is
    encoded relative to the destination) and [samenum] (a computation's
    int op count / a transfer's byte count repeats the previous one — op
    and transfer sizes are heavily repetitive). *)

(** The codec's running state: the running and producer (ctx, call)
    pairs, the previous op and byte counts, the open-frame stack, kept in
    int arrays, and the scratch entries decoding refills, so encoding and
    decoding allocate nothing. *)
type delta

val delta : unit -> delta

(** [reset d] returns [d] to the state of a fresh {!delta}: both running
    pairs and the previous counts zeroed, no open frame. Done at every
    chunk boundary so chunks decode independently. *)
val reset : delta -> unit

val encode_entry : delta -> Buffer.t -> Sigil.Event_log.entry -> unit

(** [decode_entry d b ~len ~pos] decodes the entry at [!pos] and advances
    [pos] past it, reading only the first [len] bytes of [b] (the chunk's
    payload); at [!pos = 0], a chunk's first entry, it {!reset}s [d]
    first. The result is [d]'s scratch entry of its constructor,
    lent as {!Sigil.Event_log.sink} describes: the next decode through [d]
    may overwrite it, so a caller that keeps it stores
    [Sigil.Event_log.copy] of it.

    @raise Varint.Truncated on a value cut off at [len].
    @raise Failure on an unknown tag. *)
val decode_entry : delta -> bytes -> len:int -> pos:int ref -> Sigil.Event_log.entry
