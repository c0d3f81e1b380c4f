(** HW/SW partitioning of control data flow graphs (§II-C1, §IV-A).

    Implements the paper's breakeven-speedup metric (eq. 1) and the
    max-coverage / min-communication trimming heuristic, producing the
    accelerator-candidate lists of Tables II–III and the coverage breakdown
    of Fig 7.

    The accelerator model: non-preemptible, all input data ready before it
    starts, an internal buffer (so only {e unique} communication is paid),
    and a fixed SoC bus bandwidth for offload. For a node [v] with merged
    sub-tree:

    {v t_sw         = incl_cycles(v)
 t_comm       = (incl_input_unique + incl_output_unique) / bus_bytes_per_cycle
 S_breakeven  = t_sw / (t_sw - t_comm) v}

    A node with [t_comm >= t_sw] cannot break even at any speedup
    ([breakeven] returns [infinity]).

    Trimming: the calltree is cut so each branch carries the least
    breakeven-speedup at its bottom. Deterministically, a node is merged
    (becomes a leaf candidate) when its own breakeven is no worse than the
    best achievable anywhere strictly inside its sub-tree — preferring the
    larger box (more coverage) on ties. The root and [main] are never
    merged; system-call pseudo-functions are never candidates. *)

type candidate = {
  ctx : Dbi.Context.id;
  name : string;
  path : string;
  breakeven : float;
  coverage : float; (** share of total program cycles in the merged box *)
  incl_cycles : int;
  input_unique : int;
  output_unique : int;
  incl_ops : int;
}

type trimmed = {
  selected : candidate list; (** leaves of the trimmed tree, preorder *)
  coverage : float; (** summed coverage of the selected leaves *)
}

(** Default SoC bus bandwidth: 8 bytes/cycle. *)
val default_bus_bytes_per_cycle : float

(** [breakeven ?bus_bytes_per_cycle cdfg ctx] for one merged sub-tree. *)
val breakeven : ?bus_bytes_per_cycle:float -> Cdfg.t -> Dbi.Context.id -> float

(** [trim ?bus_bytes_per_cycle ?max_coverage cdfg] runs the heuristic.
    [max_coverage] (default 0.5) bounds the program share a merged
    {e driver} box may take: a non-leaf node doing less than half of its
    sub-tree's work itself only merges below the bound, which keeps the
    heuristic selecting "useful functions" rather than the whole program
    (the root and [main] are never merged either way). *)
val trim : ?bus_bytes_per_cycle:float -> ?max_coverage:float -> Cdfg.t -> trimmed

(** [rank trimmed] sorts candidates by increasing breakeven, deduplicated
    by function name (keeping each name's best context). *)
val rank : trimmed -> candidate list

(** [top n] / [bottom n] of a ranked list (bottom is worst-first). *)
val top : int -> candidate list -> candidate list

val bottom : int -> candidate list -> candidate list
