(** Per-context communication and computation aggregates.

    This is Sigil's first output representation: for every calling context,
    the bytes it read and wrote classified along the paper's two axes —
    input/local (produced by another function vs. by itself) and
    unique/non-unique (first use vs. re-use) — plus operation counts and
    calls; and for every producer→consumer pair, a communication edge
    weighted by total and unique bytes. This is the write side: reports
    and analyses read a {!Profile_io.snapshot} of it, which also sums each
    context's incoming and outgoing edges. *)

type fn_stats = {
  mutable input_unique : int; (** bytes read, produced elsewhere, first use *)
  mutable input_nonunique : int;
  mutable local_unique : int; (** bytes read, produced by this context *)
  mutable local_nonunique : int;
  mutable written : int; (** bytes written *)
  mutable int_ops : int;
  mutable fp_ops : int;
  mutable calls : int;
}

type edge = {
  src : Dbi.Context.id;
  dst : Dbi.Context.id;
  mutable bytes : int; (** total bytes transferred *)
  mutable unique_bytes : int; (** first-use bytes *)
}

type t

val create : unit -> t

(** [stats t ctx] is the live stats record for [ctx] (created on demand). *)
val stats : t -> Dbi.Context.id -> fn_stats

(** [record_read t ~producer ~consumer ~unique ~bytes] classifies a read:
    local when [producer = consumer], otherwise input for the consumer and
    an edge [producer -> consumer]. Reads of never-written data arrive with
    [producer = Dbi.Context.root] (program input). *)
val record_read :
  t -> producer:Dbi.Context.id -> consumer:Dbi.Context.id -> unique:bool -> bytes:int -> unit

(** [record_run t ~producer ~consumer ~bytes ~unique_bytes] records one
    coalesced run of {!Shadow.read_range} — [bytes] total of which
    [unique_bytes] were first-use — with a single stats and edge update.
    [record_read] is the single-flag special case. *)
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

(** [merge ~into src] adds every stat and edge of [src] into [into].

    All fields are sums, so merging is commutative and associative: folding
    any permutation of a profile list into an empty profile yields the same
    aggregate — which is what lets the domain-parallel suite runner reduce
    shard profiles in completion order without losing determinism. Both
    profiles must index the {e same} context tree (repeated or sharded runs
    of one deterministic workload); merging across unrelated trees is
    meaningless. [src] is not modified. *)
val merge : into:t -> t -> unit

(** All communication edges, unordered. *)
val edges : t -> edge list

(** Contexts with any recorded activity, ascending id. *)
val contexts : t -> Dbi.Context.id list

(** Totals across all contexts: [(unique_reads, total_reads)] where reads =
    input + local. *)
val totals : t -> int * int
