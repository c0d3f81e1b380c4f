(** Profile regression comparison.

    The abstract lists "application performance optimization" among the
    tool's uses: profile a program, change it, profile again, and see
    which functions' computation or true communication moved. This module
    diffs two saved profiles ({!Sigil.Profile_io} snapshots), matching
    contexts by call path and communication edges by (producer path,
    consumer path), and reports per-path and per-edge deltas. *)

type status = [ `Changed | `Added | `Removed | `Same ]

(** One row. For a call path, [key] is the path, [before]/[after] its
    operations and [unique_*] its unique input bytes (true read set); for
    an edge, [key] is ["<src path> -> <dst path>"], [before]/[after] its
    bytes and [unique_*] its unique bytes. *)
type delta = {
  key : string;
  before : int;
  after : int;
  unique_before : int;
  unique_after : int;
  status : status;
}

(** Rows of each kind that appear in either side, sorted by decreasing
    absolute [after - before], then by key. Identical rows get [`Same]. *)
type t = { paths : delta list; edges : delta list }

(** [diff_many ~before ~after] diffs two {e sets} of snapshots — e.g. the
    per-shard profiles a domain-parallel suite run produced — by summing
    each side's per-key aggregates first. The sums are commutative, so the
    result is independent of the order of either list. *)
val diff_many :
  before:Sigil.Profile_io.snapshot list -> after:Sigil.Profile_io.snapshot list -> t

(** [changed t] drops the [`Same] rows. *)
val changed : t -> t

(** [is_empty t] holds when [t] has no row. *)
val is_empty : t -> bool

(** [pp ?limit ppf t] prints the path table, then the edge table, each
    when non-empty (default top 25 rows of each). *)
val pp : ?limit:int -> Format.formatter -> t -> unit
