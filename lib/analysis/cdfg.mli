(** Control data flow graph: the calltree with dependency edges (§II-C1).

    Nodes are calling contexts; call edges come from the context tree and
    data-dependency edges from the Sigil profile, weighted by the bytes the
    receiving function needs. The graph supports the paper's node-merging
    operation: for any node, the {e inclusive} cost of the box drawn around
    the node and its entire sub-tree — dependency edges inside the box are
    discarded, edges crossing the box accumulate into the node's
    communication cost, and computation sums over the sub-tree.

    When the profile holds Callgrind's costs, each node also carries the
    estimated software cycles ({!Callgrind.Estimate}) used as [t_sw] by
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

(** [of_snapshot snap] constructs the graph from a profile. A context's
    self cycles are Callgrind's estimate of its costs when [snap] holds
    them, else its operation count. *)
val of_snapshot : Sigil.Profile_io.snapshot -> t

(** [build ?callgrind sigil_tool] is
    [of_snapshot (Sigil.Profile_io.snapshot_of_tool ?callgrind sigil_tool)],
    kept for perfbench, which partitions the live tools. *)
val build : ?callgrind:Callgrind.Tool.t -> Sigil.Tool.t -> t

val node : t -> Dbi.Context.id -> node

(** Contexts present in the graph, preorder from the root. *)
val contexts : t -> Dbi.Context.id list

(** The root node (whole program). *)
val root : t -> node

(** [total_cycles t] is the whole-program estimated cycle count. *)
val total_cycles : t -> int
