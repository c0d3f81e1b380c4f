(** Re-use statistics accumulator (the {!Shadow.sink} for reuse mode).

    Collects, per consumer context, the episode statistics behind the
    paper's data-reuse case study: how many bytes were read exactly once
    vs. re-used, the distribution of re-use lifetimes (Figs 10–11), and
    the average lifetime of a re-used byte (Fig 9); and, per program, the
    breakdown of data elements by re-use count (Fig 8). Lifetimes are in
    retired guest instructions. *)

type t

(** Per-context view. An {e episode} is one function call's reads of one
    byte; see {!Shadow}. *)
type fn_reuse = {
  episodes : int; (** total episodes closed for this context *)
  reused_episodes : int; (** episodes with at least one re-read *)
  reuse_reads : int; (** total re-reads (episode reads beyond the first) *)
  lifetime_sum : int; (** sum of lifetimes over reused episodes *)
}

(** Program-wide re-use-count bins for data elements (byte versions):
    Fig 8's "0", "1–9" and ">9" stacks. *)
type version_bins = {
  zero : int;
  low : int; (** 1–9 re-uses *)
  high : int; (** more than 9 *)
}

(** [create ()] starts an empty accumulator. Lifetime histograms use the
    paper's "Bin size: 1000". *)
val create : unit -> t

val sink : t -> Shadow.sink

val fn_reuse : t -> Dbi.Context.id -> fn_reuse

(** [avg_lifetime t ctx] is the average re-use lifetime of a re-used byte
    in [ctx] (0 when nothing was re-used). *)
val avg_lifetime : t -> Dbi.Context.id -> float

(** [histogram t ctx] lists [(bin_start, count)] ascending; a lifetime [l]
    falls in the bin starting at [l / width * width]. *)
val histogram : t -> Dbi.Context.id -> (int * int) list

val version_bins : t -> version_bins

(** Contexts with at least one closed episode, ascending. *)
val contexts : t -> Dbi.Context.id list

val lifetime_bin_width : t -> int
