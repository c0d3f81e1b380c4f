(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges.

    Guards every chunk payload in the binary event-trace format; values fit
    in 32 bits and are stored as unsigned little-endian words. *)

val bytes : bytes -> pos:int -> len:int -> int
