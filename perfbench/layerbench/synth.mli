(** Seeded guest program for the [reuse-synth] workload.

    A pipeline of producer/consumer stages written against [Dbi.Guest]
    only. Each stage owns a ring of [distance + 1] heap buffers: in round
    [r] its producer writes one buffer and its [fanout] consumers read the
    buffer written [distance] rounds earlier, [read_factor] passes in total
    split evenly between them. The seed sets the buffer size, the fan-out
    and the re-read distance of every stage; the bytes each stage writes
    and reads stay within one buffer of fixed totals, so seeds change the
    program's shape and not its size. Every stage's ring is at least the
    shadow limit ([max_chunks] 4 KB chunks), so the working set is at least
    [stages] times that limit and the FIFO limiter evicts throughout. *)

type stage = {
  buf_bytes : int;  (** multiple of 64, so every buffer is line-aligned *)
  fanout : int;  (** consumer functions per stage *)
  distance : int;  (** rounds between a buffer's write and its reads *)
  rounds : int;  (** buffers produced *)
}

type t = { seed : int; stages : stage array }

(** Shadow-chunk cap the workload runs Sigil's FIFO limiter with. *)
val max_chunks : int

(** [make ~seed] draws every stage's shape from [Dbi.Prng]. *)
val make : seed:int -> t

(** Bytes of every stage ring together: the program's working set. *)
val working_set_bytes : t -> int

(** [run t m] is the guest program. *)
val run : t -> Dbi.Machine.t -> unit

(** [producer s] / [consumer s j] are the guest function names. *)
val producer : int -> string

val consumer : int -> int -> string

(** Totals the generator knows without running the program, for the
    benchmark's output check. Line figures assume 64 B lines. *)
type expected = {
  instr : int;  (** retired instructions, as [Dbi.Machine.now] counts them *)
  read_bytes : int;
  written_bytes : int;
  stage_written : int array;  (** bytes written by each stage's producer *)
  lines : int;  (** distinct 64 B lines touched *)
  line_accesses : int;  (** accesses summed over lines *)
  line_bins : int array;  (** lines by re-use count: <10, <100, <1000, <10000, more *)
}

val expected : t -> expected
