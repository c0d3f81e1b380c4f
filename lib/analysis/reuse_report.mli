(** Data-reuse reports (§IV-B): the rows behind Figs 8–11.

    Each reads a snapshot's reuse summary ({!Sigil.Profile_io.reuse}),
    live or loaded from a saved profile, and raises [Invalid_argument]
    when the run was not in reuse mode. *)

(** One stacked bar of Fig 8: fractions of data elements by re-use count. *)
type byte_breakdown = {
  zero : float;
  one_to_nine : float;
  over_nine : float;
  elements : int; (** total data elements (byte versions) *)
}

(** One bar of Fig 9 / row of the per-function table. *)
type fn_row = {
  ctx : Dbi.Context.id;
  label : string; (** function name, with [(n)] suffix distinguishing contexts *)
  avg_lifetime : float;
  reuse_reads : int; (** contribution to total re-use *)
  unique_bytes : int; (** unique bytes processed (first-use reads) *)
  unique_share : float; (** share of the benchmark's unique bytes *)
}

(** [breakdown snapshot] is Fig 8's bar for one run. *)
val breakdown : Sigil.Profile_io.snapshot -> byte_breakdown

(** [top ?n snapshot] lists the top [n] (default 10) contexts by
    contribution to total data re-use, with their average re-use lifetimes
    (Fig 9). Labels repeat a function name with [(k)] when it appears in
    several contexts, as the paper does. *)
val top : ?n:int -> Sigil.Profile_io.snapshot -> fn_row list

(** [lifetime_histogram snapshot name] merges the lifetime histograms of
    every context executing function [name]: [(bin_start, count)]
    ascending (Figs 10–11). *)
val lifetime_histogram : Sigil.Profile_io.snapshot -> string -> (int * int) list

(** [lifetime_histogram_dominant snapshot name] is the histogram of the
    single context of [name] contributing the most re-use (the paper's
    per-context accounting distinguishes [conv_gen] from [conv_gen(1)]). *)
val lifetime_histogram_dominant : Sigil.Profile_io.snapshot -> string -> (int * int) list

(** [find_contexts snapshot name] lists contexts whose function is [name]. *)
val find_contexts : Sigil.Profile_io.snapshot -> string -> Dbi.Context.id list

(** [breakdown] of a live tool's snapshot, kept for perfbench. *)
val byte_breakdown : Sigil.Tool.t -> byte_breakdown

(** [top ?n] of a live tool's snapshot, kept for perfbench. *)
val top_reusers : ?n:int -> Sigil.Tool.t -> fn_row list
