(** ASCII tables and bar charts shared by the binaries, examples and the
    benchmark harness. Pure string formatting; no knowledge of the
    profiling types. *)

(** [render ~headers rows] pads every column to its widest cell and returns
    the table with a separator under the header. Rows may be ragged; short
    rows are padded with empty cells. *)
val render : headers:string list -> string list list -> string

(** [bar_chart ?fmt items] renders one horizontal bar per
    [(label, value)], scaled so the largest value spans 50 characters.
    Negative values are clamped to 0. [fmt] formats the numeric suffix
    (default ["%.2f"]). *)
val bar_chart : ?fmt:(float -> string) -> (string * float) list -> string

(** [stacked_bar segments] renders one 100%-stacked bar, 60 characters
    wide, from fractions (label, fraction); fractions are normalized if
    they do not sum to 1. Each segment uses the next fill character from
    [['#'; '='; '-'; '.'; ' ']]. *)
val stacked_bar : (string * float) list -> string

(** [section title] renders an underlined section heading. *)
val section : string -> string
