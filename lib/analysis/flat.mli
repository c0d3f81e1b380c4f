(** Context-insensitive (gprof-style) views.

    Sigil keeps separate accounting per calling context; sometimes a
    developer wants the classic per-function rollup instead. This module
    merges contexts by function name — communication between two contexts
    of the same function collapses into local traffic, mirroring what the
    per-function numbers would have been had Sigil not separated
    contexts. *)

type row = {
  name : string;
  contexts : int; (** how many calling contexts merged into this row *)
  calls : int;
  int_ops : int;
  fp_ops : int;
  input_unique : int;
  input_total : int;
  local_unique : int;
  local_total : int;
  written : int;
}

(** [rows snap] is one row per function name, sorted by decreasing
    operation count. The root context is excluded. Edges between contexts
    of the same function are re-classified as local traffic. *)
val rows : Sigil.Profile_io.snapshot -> row list

(** [pp ?limit ppf snap] prints the flat profile (default top 25). *)
val pp : ?limit:int -> Format.formatter -> Sigil.Profile_io.snapshot -> unit

(** [calltree ?max_depth ppf snap] prints the calling-context tree with
    per-node inclusive operation counts and unique input/output bytes — a
    text rendering of the paper's Fig 1. *)
val calltree : ?max_depth:int -> Format.formatter -> Sigil.Profile_io.snapshot -> unit
