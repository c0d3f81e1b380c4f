(** LEB128 variable-length integers over OCaml's native 63-bit ints.

    [write] treats the int as its 63-bit pattern (so every value, negative
    included, round-trips in at most 9 bytes; small non-negative values take
    one byte). [write_signed] applies zigzag first, which keeps small
    magnitudes — positive or negative — short; it is the encoding for delta
    fields. *)

exception Truncated
(** A decoder ran off the end of the buffer or hit an overlong encoding.
    Callers (the chunk decoder) translate this into {!Frame.Corrupt} with
    the offending chunk's file offset. *)

val write : Buffer.t -> int -> unit
val write_signed : Buffer.t -> int -> unit

(** [read b ~len ~pos] decodes at [!pos], advancing [pos] past the value.
    Only the first [len] bytes of [b] are read: a buffer reused across
    chunks is longer than most of them.

    @raise Truncated on a malformed encoding or one cut off at [len]. *)
val read : bytes -> len:int -> pos:int ref -> int

val read_signed : bytes -> len:int -> pos:int ref -> int
