(** Data-reuse reports (§IV-B): the rows behind Figs 8–12.

    Each takes the live tool, whose reuse histograms no saved profile
    holds yet; names and Table I totals come from the run's
    {!Sigil.Profile_io.snapshot_of_tool}, which the per-function queries
    take from the caller. *)

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

(** [byte_breakdown sigil_tool] computes Fig 8's bar for one run (requires
    reuse mode). *)
val byte_breakdown : Sigil.Tool.t -> byte_breakdown

(** [top_reusers ?n sigil_tool] lists the top [n] (default 10) contexts by
    contribution to total data re-use, with their average re-use lifetimes
    (Fig 9). Labels repeat a function name with [(k)] when it appears in
    several contexts, as the paper does. *)
val top_reusers : ?n:int -> Sigil.Tool.t -> fn_row list

(** [lifetime_histogram sigil_tool snapshot name] merges the lifetime
    histograms of every context executing function [name]:
    [(bin_start, count)] ascending (Figs 10–11). *)
val lifetime_histogram : Sigil.Tool.t -> Sigil.Profile_io.snapshot -> string -> (int * int) list

(** [lifetime_histogram_dominant sigil_tool snapshot name] is the histogram
    of the single context of [name] contributing the most re-use (the
    paper's per-context accounting distinguishes [conv_gen] from
    [conv_gen(1)]). *)
val lifetime_histogram_dominant :
  Sigil.Tool.t -> Sigil.Profile_io.snapshot -> string -> (int * int) list

(** [find_contexts snapshot name] lists contexts whose function is [name]. *)
val find_contexts : Sigil.Profile_io.snapshot -> string -> Dbi.Context.id list
