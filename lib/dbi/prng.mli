(** Deterministic pseudo-random number generator (SplitMix64).

    Workloads must be bit-reproducible across runs and platforms, so they
    never use [Stdlib.Random]; every workload derives its own generator from
    a seed built out of its name and input scale. *)

type t

(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)
val create : int64 -> t

(** [of_string s] seeds a generator from an arbitrary string (FNV-1a). *)
val of_string : string -> t

(** [next t] returns the next raw 64-bit value. *)
val next : t -> int64

(** [int t bound] returns a uniform value in [\[0, bound)]. [bound] must be
    positive. *)
val int : t -> int -> int
