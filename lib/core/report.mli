(** Textual rendering of Sigil aggregate profiles, live or loaded. *)

type row = {
  ctx : Dbi.Context.id;
  path : string;
  calls : int;
  ops : int;
  input_unique : int;
  input_total : int;
  local_unique : int;
  local_total : int;
  output_unique : int;
  output_total : int;
  written : int;
}

(** [rows snap] builds one row per active context, sorted by decreasing
    operation count (ties by context id). *)
val rows : Profile_io.snapshot -> row list

(** [pp ?limit ppf snap] prints the aggregate profile (default top 25). *)
val pp : ?limit:int -> Format.formatter -> Profile_io.snapshot -> unit

(** [pp_edges ?limit ppf snap] prints communication edges sorted by
    unique bytes (ties in the snapshot's edge order). *)
val pp_edges : ?limit:int -> Format.formatter -> Profile_io.snapshot -> unit
