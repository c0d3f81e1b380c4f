(** Two-level cache hierarchy (L1I + L1D, shared LL), Callgrind-style.

    An access that misses its L1 is forwarded whole, same address and
    length, to the shared last-level cache. The hierarchy keeps tags
    only: every access returns its miss level, and the caller charges it
    (Callgrind into the context's [Cost.t], under Callgrind's names:
    [Ir/Dr/Dw] accesses, [I1mr/D1mr/D1mw] first-level misses,
    [ILmr/DLmr/DLmw] last-level misses). *)

type t

type config = {
  l1i : Cache.config;
  l1d : Cache.config;
  ll : Cache.config;
}

val default : config

val create : config -> t

(** The miss levels: {!l1_hit} (0), {!ll_hit} (1, missed L1 and hit LL)
    or {!ll_miss} (2, missed both). Accesses allocate nothing. *)

val l1_hit : int
val ll_hit : int
val ll_miss : int

(** [fetch t addr len] simulates an instruction fetch through L1I and
    returns its miss level. *)
val fetch : t -> int -> int -> int

(** [data_read t addr len] / [data_write t addr len] simulate data
    accesses through L1D and return their miss level. *)
val data_read : t -> int -> int -> int

val data_write : t -> int -> int -> int
