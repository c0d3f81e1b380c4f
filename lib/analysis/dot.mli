(** Graphviz export.

    Renders the paper's Fig 1/2 pictures from real profiles: the control
    data flow graph as a calltree with bold call edges and dashed
    data-dependency edges weighted by (unique) bytes. Output is plain DOT,
    viewable with [dot -Tsvg]. *)

(** [cdfg ?min_bytes ?max_nodes snap ppf] writes the control data flow
    graph of a profile. Data edges carrying fewer than [min_bytes] unique
    bytes are dropped (default 1); the graph is truncated to the
    [max_nodes] hottest contexts by operation count (default 64, ties by
    context id) and their ancestors, to stay readable. Nodes print in
    preorder. *)
val cdfg :
  ?min_bytes:int -> ?max_nodes:int -> Sigil.Profile_io.snapshot -> Format.formatter -> unit

(** [save_cdfg ?min_bytes ?max_nodes snap path] writes {!cdfg} to a file
    crash-safely, through [Dbi.Atomic_file.write]. *)
val save_cdfg : ?min_bytes:int -> ?max_nodes:int -> Sigil.Profile_io.snapshot -> string -> unit
