(** Single set-associative cache with true-LRU replacement.

    Geometry follows Callgrind's simulator: size, associativity and line
    size, all powers of two. Accesses are by byte address and length; an
    access touches every line its bytes fall in, in address order, and
    misses if any of them missed, like cg_sim does. The cache keeps tags
    only: it counts nothing, so callers charge each access from the
    result of {!access} (Callgrind into its per-context [Cost.t]). The
    access path allocates nothing, so the simulator adds no GC work per
    guest event. *)

type t

type config = {
  size : int; (** total bytes *)
  assoc : int; (** ways per set *)
  line : int; (** line size, bytes *)
}

(** Callgrind defaults: 32 KiB / 8-way / 64 B. *)
val l1_default : config

(** Callgrind LL default: 8 MiB / 16-way / 64 B. *)
val ll_default : config

(** [create config] builds an empty cache.

    @raise Invalid_argument if any geometry value is not a positive power
    of two, or [assoc * line] exceeds [size]. *)
val create : config -> t

(** [access t addr len] touches [len] bytes at [addr]; returns [true] on a
    hit (every touched line present). Lines touched are made
    most-recently-used. Allocates nothing.

    @raise Invalid_argument if [len] is not positive. *)
val access : t -> int -> int -> bool
