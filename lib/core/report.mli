(** Textual rendering of Sigil aggregate profiles, live or loaded. *)

(** [pp ?limit ppf snap] prints one line per active context, by decreasing
    operation count (ties by context id), from the snapshot's records
    (default top 25). *)
val pp : ?limit:int -> Format.formatter -> Profile_io.snapshot -> unit

(** [pp_edges ?limit ppf snap] prints communication edges sorted by
    unique bytes (ties in the snapshot's edge order). *)
val pp_edges : ?limit:int -> Format.formatter -> Profile_io.snapshot -> unit
