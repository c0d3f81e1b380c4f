(** Low-overhead self-profiling metrics (the paper's Figs 4–6 turned into
    asserted values).

    Every number Sigil reports about itself lives in one of two domains:

    - {b deterministic} ([Det]): driven by the retired-instruction clock
      and the guest event stream only — shadow chunk allocations and
      evictions, coalesced-run counts, events dispatched, trace chunks
      written. The same (workload, scale, options) triple produces the
      same value on every host, at every [--domains] level. These are the
      testable metrics: golden values in the suite, byte-identical JSON
      between sequential and parallel runs in [test/cli/stats.t].
    - {b wall-clock} ([Wall]): phase timings, throughput, per-domain task
      distribution — anything the host scheduler can perturb. Reported,
      never asserted.

    The subsystems themselves hold their metrics as plain mutable [int]
    fields (the near-zero-cost probes); this module is the vocabulary they
    are exported in — {!sample}s gathered into immutable {!snapshot}s that
    merge deterministically (associative, commutative, [empty]-identity),
    so a suite aggregate folded from per-run snapshots in submission order
    is independent of which domain ran what. *)

(** Which guarantees a metric carries; see the module description. *)
type domain = Det | Wall

(** Merge semantics by constructor: counters and gauges add, peaks
    (high-water marks) take the max, histograms add bucketwise, seconds
    add. *)
type value =
  | Counter of int  (** monotone count *)
  | Gauge of int  (** point-in-time level; shards add *)
  | Peak of int  (** high-water mark *)
  | Histogram of int array  (** power-of-two buckets, see {!Hist} *)
  | Seconds of float  (** wall-clock duration; [Wall] only *)

type sample = { name : string; domain : domain; value : value }

(** Power-of-two bucketed histogram accumulator. Bucket 0 holds values
    [<= 0]; bucket [b >= 1] holds [2^(b-1) <= v < 2^b]. [observe] is the
    hot-path probe: one bit-length computation and one array increment. *)
module Hist : sig
  type t

  val create : unit -> t
  val observe : t -> int -> unit

  (** [bucket_of v] is the bucket index [v] lands in. *)
  val bucket_of : int -> int

  (** [bucket_lo b] is the inclusive lower bound of bucket [b] (0 for
      bucket 0). The exclusive upper bound of bucket [b >= 1] is
      [2 * bucket_lo b]. *)
  val bucket_lo : int -> int

  (** Bucket counts with trailing zero buckets trimmed. *)
  val counts : t -> int array

  val total : t -> int
end

(** {2 Sample constructors} *)

val count : ?domain:domain -> string -> int -> sample
val gauge : ?domain:domain -> string -> int -> sample
val peak : ?domain:domain -> string -> int -> sample

(** [hist name h] snapshots the accumulator [h] (the counts are copied). *)
val hist : ?domain:domain -> string -> Hist.t -> sample

(** Always [Wall]: a duration can never be deterministic. *)
val seconds : string -> float -> sample

(** {2 Snapshots} *)

(** An immutable, name-sorted, name-unique set of samples. *)
type snapshot

val empty : snapshot

(** [of_samples ss] sorts by name and combines duplicates with the merge
    rule of their constructor.

    @raise Invalid_argument if one name appears with two different
    constructors or domains. *)
val of_samples : sample list -> snapshot

(** [merge a b] combines per name (union of names; see {!value} for the
    per-constructor rule). Associative and commutative with {!empty} as
    identity — folding per-run snapshots in any order yields the same
    aggregate.

    @raise Invalid_argument on constructor or domain mismatch for a shared
    name. *)
val merge : snapshot -> snapshot -> snapshot

(** Restrict to one domain. *)
val deterministic : snapshot -> snapshot

val wall : snapshot -> snapshot

(** Structural equality (histograms compare with trailing zeros trimmed). *)
val equal : snapshot -> snapshot -> bool

val find : snapshot -> string -> value option

(** [get_int s name] is the integer payload of a [Counter]/[Gauge]/[Peak]
    sample, or 0 when the name is absent.

    @raise Invalid_argument on a [Histogram] or [Seconds] sample. *)
val get_int : snapshot -> string -> int

(** {2 Rendering} *)

(** [json_object s] is one JSON object [{"name": value, ...}] in ascending
    name order: ints for counters/gauges/peaks, arrays for histograms,
    floats for seconds. Deterministic input gives byte-identical output. *)
val json_object : ?indent:string -> snapshot -> string

(** [to_json s] is [{"deterministic": {...}, "wall_clock": {...}}]. *)
val to_json : snapshot -> string

(** Human-readable two-section table. *)
val pp : Format.formatter -> snapshot -> unit
