(** Control data flow graph: the calltree with dependency edges (§II-C1).

    Nodes are calling contexts; call edges come from the context tree and
    data-dependency edges from the Sigil profile, weighted by the bytes the
    receiving function needs. The graph supports the paper's node-merging
    operation: for any node, the {e inclusive} cost of the box drawn around
    the node and its entire sub-tree — dependency edges inside the box are
    discarded, edges crossing the box accumulate into the node's
    communication cost, and computation sums over the sub-tree.

    When per-context cycle estimates from the same run are supplied, each
    node also carries the estimated software cycles used as [t_sw] by
    partitioning. *)

type node = {
  ctx : Dbi.Context.id;
  name : string; (** function name (no path) *)
  path : string;
  children : Dbi.Context.id list;
  self_ops : int;
  self_calls : int;
  incl_ops : int; (** sub-tree operations *)
  incl_cycles : int; (** sub-tree estimated cycles (= incl_ops when no costs) *)
  incl_input_unique : int; (** unique bytes entering the sub-tree box *)
  incl_input_total : int;
  incl_output_unique : int; (** unique bytes leaving the box *)
  incl_output_total : int;
}

type t

(** [of_snapshot ?self_cycles snap] constructs the graph from a profile.
    [self_cycles ctx] is the estimated cycles [ctx] spent itself; callers
    build it from Callgrind's estimate of the same run, e.g.
    [fun ctx -> Callgrind.Estimate.cycles (Callgrind.Tool.cost cg ctx)].
    Without it, cycles are operation counts. *)
val of_snapshot : ?self_cycles:(Dbi.Context.id -> int) -> Sigil.Profile_io.snapshot -> t

(** [build ?callgrind sigil_tool] is [of_snapshot] of the run's
    {!Sigil.Profile_io.snapshot_of_tool}, with [callgrind]'s estimate as
    the self cycles. [callgrind] must come from the same machine run (tool
    attached alongside Sigil) so context ids agree. *)
val build : ?callgrind:Callgrind.Tool.t -> Sigil.Tool.t -> t

val node : t -> Dbi.Context.id -> node

(** Contexts present in the graph, preorder from the root. *)
val contexts : t -> Dbi.Context.id list

(** The root node (whole program). *)
val root : t -> node

(** [total_cycles t] is the whole-program estimated cycle count. *)
val total_cycles : t -> int
