(** Aggregate profiles detached from the run: the one read-side view of a
    profile.

    The paper closes by promising to "release the profile data for many
    commonly used benchmarks... researchers can use the data without
    running Sigil". A {!snapshot} is that data: a finished run's symbol
    table, calling-context tree, per-context aggregates and communication
    edges, inspectable without a machine or a re-run. Every report and
    analysis reads a snapshot, whether {!snapshot_of_tool} took it from a
    live run or [Tracefile.Profile_file.load] read it from disk, so the
    two give the same output. It is saved and loaded as a profile section
    of the binary trace container ([Tracefile.Profile_file],
    docs/FORMATS.md §6); {!render} is its text dump, which nothing parses
    back:
    {v
 sigil-profile 1
 S <fn-id> <name>                         symbols
 C <ctx> <parent> <fn-id> <calls>         context-tree nodes (preorder)
 T <ctx> <in-u> <in-n> <loc-u> <loc-n> <written> <iops> <fops>
 X <src> <dst> <bytes> <unique>           communication edges v}  *)

type ctx_stats = {
  ctx : Dbi.Context.id;
  parent : Dbi.Context.id; (** -1 for the root *)
  fn : int; (** -1 for the root *)
  calls : int;
  input_unique : int;
  input_nonunique : int;
  local_unique : int;
  local_nonunique : int;
  written : int;
  int_ops : int;
  fp_ops : int;
}

type edge = {
  src : Dbi.Context.id;
  dst : Dbi.Context.id;
  bytes : int;
  unique_bytes : int;
}

type snapshot

(** [snapshot_of_tool tool] captures a finished run's profile. *)
val snapshot_of_tool : Tool.t -> snapshot

(** [make ~names ~contexts ~edges] is the snapshot of the run whose
    function names and context tree are [names], with [contexts] in
    preorder (their [parent] and [fn] as [names] has them) and [edges]; a
    loader builds one from a saved profile. Per-context lookups, children
    and edge sums are computed here, once.

    @raise Invalid_argument unless the context ids are [0 .. n-1], each
    once, and every edge names one of them. *)
val make : names:Dbi.Names.t -> contexts:ctx_stats list -> edges:edge list -> snapshot

(** [render snap] is the text dump above. The rendering is canonical
    (symbols by id, preorder contexts, sorted edges), so two runs are
    bit-identical profiles iff their dumps are equal. *)
val render : snapshot -> string

(** [to_string tool] is [render (snapshot_of_tool tool)]: the equality the
    parallel-vs-sequential determinism test checks. *)
val to_string : Tool.t -> string

(** {2 Queries} *)

(** The run's function names and context tree. *)
val names : snapshot -> Dbi.Names.t

(** [fn_name snap fn] is [Dbi.Names.fn_name]: ["<root>"] for [-1]. *)
val fn_name : snapshot -> int -> string

(** Number of contexts; their ids are [0 .. count - 1]. *)
val count : snapshot -> int

(** [name snap ctx] is [Dbi.Names.name]: the name of the function [ctx]
    runs, ["<root>"] for the root. *)
val name : snapshot -> Dbi.Context.id -> string

(** [path snap ctx] is [Dbi.Names.path]: the full call path. *)
val path : snapshot -> Dbi.Context.id -> string

(** Contexts in preorder (root first). *)
val contexts : snapshot -> ctx_stats list

(** Contexts that recorded a call, an operation, a read or a write, by
    ascending id: the contexts a live {!Profile} holds stats for. *)
val active_contexts : snapshot -> ctx_stats list

val stats : snapshot -> Dbi.Context.id -> ctx_stats

(** Edges, sorted when the snapshot came from {!snapshot_of_tool} or a
    saved file. *)
val edges : snapshot -> edge list

(** [children snap ctx] in tree order (the order the run created them). *)
val children : snapshot -> Dbi.Context.id -> Dbi.Context.id list

(** [output_bytes snap ctx] sums the outgoing edges of [ctx]:
    [(total, unique)]. *)
val output_bytes : snapshot -> Dbi.Context.id -> int * int

(** [input_bytes snap ctx] sums the incoming edges of [ctx] (input, not
    local reads): [(total, unique)]. *)
val input_bytes : snapshot -> Dbi.Context.id -> int * int

(** Program-wide [(unique, total)] read bytes, as {!Profile.totals}. *)
val totals : snapshot -> int * int
