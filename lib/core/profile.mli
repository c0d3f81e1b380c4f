(** Per-context communication and computation aggregates.

    This is Sigil's first output representation: for every calling context,
    the bytes it read and wrote classified along the paper's two axes —
    input/local (produced by another function vs. by itself) and
    unique/non-unique (first use vs. re-use) — plus operation counts and
    calls; and for every producer→consumer pair, a communication edge
    weighted by total and unique bytes. These records are the one shape of
    a context's numbers: a {!Profile_io.snapshot} shares a finished run's
    records and a saved profile's loader builds them, and reports and
    analyses read them through the snapshot, which also sums each
    context's incoming and outgoing edges. *)

type fn_stats = {
  ctx : Dbi.Context.id;
  fn : Dbi.Symbol.id; (** the function [ctx] runs, [-1] for the root *)
  mutable calls : int;
  mutable input_unique : int; (** bytes read, produced elsewhere, first use *)
  mutable input_nonunique : int;
  mutable local_unique : int; (** bytes read, produced by this context *)
  mutable local_nonunique : int;
  mutable written : int; (** bytes written *)
  mutable int_ops : int;
  mutable fp_ops : int;
}

type edge = {
  src : Dbi.Context.id;
  dst : Dbi.Context.id;
  mutable bytes : int; (** total bytes transferred *)
  mutable unique_bytes : int; (** first-use bytes *)
}

type t

(** [create contexts] is an empty profile of the run whose calling
    contexts are [contexts]. *)
val create : Dbi.Context.t -> t

(** [stats t ctx] is the live stats record for [ctx] (created on demand). *)
val stats : t -> Dbi.Context.id -> fn_stats

(** [active s] holds when [s] recorded a call, an operation, a read or a
    write. *)
val active : fn_stats -> bool

(** [record_run t ~producer ~consumer ~bytes ~unique_bytes] records one
    coalesced run of {!Shadow.read_range} — [bytes] total of which
    [unique_bytes] were first-use — with a single stats and edge update.
    The read is local when [producer = consumer], otherwise input for the
    consumer and an edge [producer -> consumer]. Reads of never-written
    data arrive with [producer = Dbi.Context.root] (program input). *)
val record_run :
  t ->
  producer:Dbi.Context.id ->
  consumer:Dbi.Context.id ->
  bytes:int ->
  unique_bytes:int ->
  unit

val record_write : t -> ctx:Dbi.Context.id -> bytes:int -> unit
val record_ops : t -> ctx:Dbi.Context.id -> Dbi.Event.op_kind -> int -> unit
val record_call : t -> ctx:Dbi.Context.id -> unit

(** All communication edges, unordered. *)
val edges : t -> edge list

(** Contexts with any recorded activity ({!active}), ascending id. *)
val contexts : t -> Dbi.Context.id list

(** [read_totals stats] sums [stats]' reads: [(unique, total)] where
    reads = input + local. *)
val read_totals : fn_stats list -> int * int

(** [read_totals] over every context. *)
val totals : t -> int * int
