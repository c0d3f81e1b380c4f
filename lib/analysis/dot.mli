(** Graphviz export.

    Renders the paper's Fig 1/2 pictures from real profiles: the control
    data flow graph as a calltree with bold call edges and dashed
    data-dependency edges weighted by (unique) bytes, and the critical
    path as a chain diagram like Fig 3. Output is plain DOT, viewable with
    [dot -Tsvg]. *)

(** [cdfg ?min_bytes ?max_nodes snap ppf] writes the control data flow
    graph of a profile. Data edges carrying fewer than [min_bytes] unique
    bytes are dropped (default 1); the graph is truncated to the
    [max_nodes] hottest contexts by operation count (default 64, ties by
    context id) and their ancestors, to stay readable. Nodes print in
    preorder. *)
val cdfg :
  ?min_bytes:int -> ?max_nodes:int -> Sigil.Profile_io.snapshot -> Format.formatter -> unit

(** [critical_path snap critpath ppf] writes the critical-path chain: one
    node per occurrence on the longest path, labelled with self and
    inclusive costs as in Fig 3. [snap] names the contexts. *)
val critical_path : Sigil.Profile_io.snapshot -> Critpath.t -> Format.formatter -> unit

(** [save_cdfg ?min_bytes ?max_nodes snap path] / [save_critical_path] are
    file-writing conveniences; both write crash-safely, through
    [Dbi.Atomic_file.write]. *)
val save_cdfg : ?min_bytes:int -> ?max_nodes:int -> Sigil.Profile_io.snapshot -> string -> unit

val save_critical_path : Sigil.Profile_io.snapshot -> Critpath.t -> string -> unit
