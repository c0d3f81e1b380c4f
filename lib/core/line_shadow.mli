(** Line-granularity re-use mode (§IV-B3, Fig 12).

    When configured with a cache line size, Sigil shadows every line in
    memory rather than every byte, and prints re-use counts and lifetimes
    for every block touched by the program instead of aggregating costs by
    function. Re-use count of a line = accesses beyond the first. *)

type t

type line_record = {
  line_addr : int; (** line index (address / line size) *)
  accesses : int;
  first : int; (** timestamp of first access *)
  last : int; (** timestamp of last access *)
}

(** Fig 12's bins over per-line re-use counts. *)
type bins = {
  under_10 : int;
  under_100 : int;
  under_1000 : int;
  under_10000 : int;
  over_10000 : int;
}

(** [create ~line_size ()] — [line_size] must be a positive power of two
    (default 64). *)
val create : ?line_size:int -> unit -> t

(** [touch t ~now addr size] records an access covering
    [\[addr, addr+size)]. *)
val touch : t -> now:int -> int -> int -> unit

(** Number of distinct lines touched. *)
val lines : t -> int

(** All per-line records, ascending line address. *)
val records : t -> line_record list

(** [reuse_count r] is [r.accesses - 1]. *)
val reuse_count : line_record -> int

val bins : t -> bins

(** Fractions of [bins] that sum to 1 (0 lines yields all zeros). *)
val bin_fractions : t -> float * float * float * float * float

(** Deterministic [line.*] telemetry samples: touch calls, total per-line
    access count, distinct lines, and the configured line size. *)
val telemetry : t -> Telemetry.sample list
