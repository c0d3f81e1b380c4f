(** Graphviz export.

    Renders the paper's Fig 1/2 pictures from real profiles: the control
    data flow graph as a calltree with bold call edges and dashed
    data-dependency edges weighted by (unique) bytes, and the critical
    path as a chain diagram like Fig 3. Output is plain DOT, viewable with
    [dot -Tsvg]. *)

(** [cdfg ?min_bytes ?max_nodes tool ppf] writes the control data flow
    graph of a finished Sigil run. Data edges carrying fewer than
    [min_bytes] unique bytes are dropped (default 1); the graph is
    truncated to the [max_nodes] hottest contexts by operation count
    (default 64) to stay readable. *)
val cdfg : ?min_bytes:int -> ?max_nodes:int -> Sigil.Tool.t -> Format.formatter -> unit

(** [critical_path tool critpath ppf] writes the critical-path chain: one
    node per occurrence on the longest path, labelled with self and
    inclusive costs as in Fig 3. *)
val critical_path : Sigil.Tool.t -> Critpath.t -> Format.formatter -> unit

(** [save_cdfg ?min_bytes ?max_nodes tool path] / [save_critical_path] are
    file-writing conveniences; both write crash-safely, through
    [Dbi.Atomic_file.write]. *)
val save_cdfg : ?min_bytes:int -> ?max_nodes:int -> Sigil.Tool.t -> string -> unit

val save_critical_path : Sigil.Tool.t -> Critpath.t -> string -> unit
