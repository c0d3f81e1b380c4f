(** Single set-associative cache with true-LRU replacement.

    Geometry follows Callgrind's simulator: size, associativity and line
    size, all powers of two. Accesses are by byte address and length; an
    access that straddles a line boundary touches both lines (and counts as
    a miss if either misses), like cg_sim does. The access path allocates
    nothing, so the simulator adds no GC work per guest event. *)

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
    most-recently-used. Allocates nothing. *)
val access : t -> int -> int -> bool

(** [repeat_hits t n] counts [n] more accesses that hit without touching
    the tag array. It is exact only for repeats of an access that lies in
    one line and was the last access to [t]: that line is then MRU in its
    set, so touching it again would hit and move nothing. Callers use it
    to batch the sequential instruction fetches that fall in one line. *)
val repeat_hits : t -> int -> unit

val accesses : t -> int
val misses : t -> int
val config : t -> config

(** Installs that replaced an invalid way (cold fills), i.e. how much of the
    cache the workload actually occupied. *)
val lines_filled : t -> int

val reset : t -> unit
