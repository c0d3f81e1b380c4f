(** Two-level cache hierarchy (L1I + L1D, shared LL), Callgrind-style.

    Misses in either L1 are forwarded to the shared last-level cache.
    Counters use Callgrind's names: [Ir/Dr/Dw] are accesses, [I1mr/D1mr/D1mw]
    first-level misses, [ILmr/DLmr/DLmw] last-level misses. *)

type t

type config = {
  l1i : Cache.config;
  l1d : Cache.config;
  ll : Cache.config;
}

val default : config

type counts = {
  ir : int;
  dr : int;
  dw : int;
  i1mr : int;
  d1mr : int;
  d1mw : int;
  ilmr : int;
  dlmr : int;
  dlmw : int;
}

val zero_counts : counts

val create : config -> t

(** Every access returns its miss level, so a caller can charge the access
    without reading the counters before and after: {!l1_hit} (0), {!ll_hit}
    (1, missed L1 and hit LL) or {!ll_miss} (2, missed both). Accesses
    update the counters in place and allocate nothing. *)

val l1_hit : int
val ll_hit : int
val ll_miss : int

(** [fetch t addr len] simulates an instruction fetch and returns its miss
    level. *)
val fetch : t -> int -> int -> int

(** [fetch_hits t n] counts [n] instruction fetches that repeat the last
    {!fetch} within the same L1I line. Each is an L1I hit by construction
    (see {!Cache.repeat_hits}), so only [Ir] and the L1I access count move.
    Callgrind uses it to simulate a run of sequential fetches once per
    line. *)
val fetch_hits : t -> int -> unit

(** [data_read t addr len] / [data_write t addr len] simulate data
    accesses and return their miss level. *)
val data_read : t -> int -> int -> int

val data_write : t -> int -> int -> int

(** [counts t] is a snapshot of the nine counters, built on each call. *)
val counts : t -> counts

(** The three caches, for their access, miss and fill counts. *)
val l1i : t -> Cache.t

val l1d : t -> Cache.t
val ll : t -> Cache.t

(** First-level misses (instruction + data). *)
val l1_misses : counts -> int

(** Last-level misses (instruction + data). *)
val ll_misses : counts -> int
