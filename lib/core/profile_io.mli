(** Aggregate profiles detached from the run: the one read-side view of a
    profile.

    The paper closes by promising to "release the profile data for many
    commonly used benchmarks... researchers can use the data without
    running Sigil". A {!snapshot} is that data: a finished run's symbol
    table, calling-context tree, per-context aggregates and communication
    edges and, when the run had them, Callgrind's per-context costs and
    the reuse summary, inspectable without a machine or a re-run. Every
    report and analysis reads a snapshot, whether {!snapshot_of_tool}
    took it from a live run or [Tracefile.Profile_file.load] read it from
    disk, so the two give the same output. It is saved and loaded as a
    profile section of the binary trace container
    ([Tracefile.Profile_file], docs/FORMATS.md §3); {!render} is its text
    dump of the Sigil part, which nothing parses back:
    {v
 sigil-profile 1
 S <fn-id> <name>                         symbols
 C <ctx> <parent> <fn-id> <calls>         context-tree nodes, preorder (parent from the table)
 T <ctx> <in-u> <in-n> <loc-u> <loc-n> <written> <iops> <fops>
 X <src> <dst> <bytes> <unique>           communication edges v}  *)

(** A context's calls and Table I totals: the live profile's own record,
    which a snapshot shares. *)
type ctx_stats = Profile.fn_stats

(** A producer -> consumer edge: the live profile's own record. *)
type edge = Profile.edge

type snapshot

(** [snapshot_of_tool ?callgrind tool] captures a finished run's profile,
    with the costs of [callgrind] (attached to the same machine). It
    shares [tool]'s stats and edge records and, in reuse mode, its reuse
    accumulator, copying no counter. *)
val snapshot_of_tool : ?callgrind:Callgrind.Tool.t -> Tool.t -> snapshot

(** [make ~names ~contexts ~edges ~costs ~reuse] is the snapshot of the
    run whose function names and context tree are [names], with one
    record per context in [contexts], in any order, [edges], and
    Callgrind's costs and the reuse summary when the run had them; a
    loader builds one from a saved profile. The preorder, children,
    per-context lookups and edge sums are computed here, once, from
    [names] and the records.

    @raise Invalid_argument unless every context of [names] has exactly
    one record, every record's context is in [names] and its [fn] is the
    one [names] gives, and every edge names a context. *)
val make :
  names:Dbi.Names.t -> contexts:ctx_stats list -> edges:edge list ->
  costs:Callgrind.Output.costs option -> reuse:Reuse.t option -> snapshot

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

(** Callgrind's self costs by context, when the run had Callgrind. *)
val costs : snapshot -> Callgrind.Output.costs option

(** The reuse summary (version bins, and each context's episode counts
    and lifetime histogram), when the run was in reuse mode. *)
val reuse : snapshot -> Reuse.t option

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

(** Contexts that are {!Profile.active}, by ascending id: the contexts a
    live {!Profile} lists. *)
val active_contexts : snapshot -> ctx_stats list

val stats : snapshot -> Dbi.Context.id -> ctx_stats

(** [parent snap ctx] is [ctx]'s calling context in the names table, [-1]
    for the root. *)
val parent : snapshot -> Dbi.Context.id -> Dbi.Context.id

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

(** Program-wide [(unique, total)] read bytes: {!Profile.read_totals} of
    every context. *)
val totals : snapshot -> int * int
