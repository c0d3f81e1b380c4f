(** Per-context cost records, Callgrind vocabulary.

    One mutable record per calling context accumulates the event counts
    Callgrind reports: retired instructions, operation mix, data accesses,
    cache misses at both levels, conditional branches and mispredicts, and
    the number of calls. *)

type t = {
  mutable ir : int; (** retired instructions (ops + accesses + branches) *)
  mutable int_ops : int;
  mutable fp_ops : int;
  mutable dr : int; (** data reads *)
  mutable dw : int; (** data writes *)
  mutable d1mr : int;
  mutable d1mw : int;
  mutable dlmr : int;
  mutable dlmw : int;
  mutable i1mr : int;
  mutable ilmr : int;
  mutable bc : int; (** conditional branches *)
  mutable bcm : int; (** mispredicted *)
  mutable calls : int;
}

val zero : unit -> t

(** [add ~into src] accumulates [src] into [into]. *)
val add : into:t -> t -> unit

val copy : t -> t

(** Total cache misses at L1 / LL (instruction + data). *)
val l1_misses : t -> int

val ll_misses : t -> int
