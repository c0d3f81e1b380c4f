(** Fault-injection harness for the robustness tests. It lives among the
    tests because no production code path depends on it.

    Two families of faults, mirroring how trace artifacts actually die:
    {e live} failures, where the event sink starts raising mid-run (disk
    full, quota, yanked volume) — modelled by {!failing_sink}; and
    {e at-rest} damage, where a finished or torn file is mutilated on disk
    (truncation, bit rot, a torn final write) — modelled by the file
    mutators, which always copy [src] to [dst] and never touch the
    original. The tests drive these against [Tracefile.Reader.open_salvage]
    to check the salvage contract: every fault yields either a recovered
    strict prefix of entries or a structured [Frame.Corrupt] carrying an
    offset — never an uncaught exception, never silently wrong data. *)

exception Injected of string
(** Raised by {!failing_sink} when its trigger fires. The payload names
    the trigger, purely for test diagnostics. *)

(** When a {!failing_sink} starts failing:
    - [After_entries n]: the [n]th accepted entry is the last; entry
      [n+1] raises.
    - [After_bytes n]: raises once the writer has produced [n] bytes
      (on disk plus buffered).
    - [On_flush n]: the [n]th chunk flush is allowed to complete, then
      the next entry raises — the crash lands exactly on a chunk
      boundary, the hardest case to distinguish from a clean end. *)
type trigger =
  | After_entries of int
  | After_bytes of int
  | On_flush of int

(** [failing_sink trigger w] wraps writer [w] as a sink that forwards
    entries until [trigger] fires, then raises {!Injected} — and keeps
    raising on every later entry (a failed device stays failed). *)
val failing_sink : trigger -> Tracefile.Writer.t -> Sigil.Event_log.sink

(** {2 File mutators}

    All three read [src] whole, write a mutated copy to [dst] (plain
    write, not atomic — these {e produce} damaged files), and leave [src]
    untouched. *)

val file_length : string -> int

(** [truncated_copy ~src ~dst ~len] keeps the first [len] bytes. *)
val truncated_copy : src:string -> dst:string -> len:int -> unit

(** [bit_flipped_copy ~src ~dst ~byte ~bit] flips one bit. *)
val bit_flipped_copy : src:string -> dst:string -> byte:int -> bit:int -> unit

(** [torn_tail_copy ~src ~dst ~keep ~junk] keeps [keep] bytes and appends
    [junk] bytes of deterministic garbage — a torn final write that left
    stale sector contents behind. *)
val torn_tail_copy : src:string -> dst:string -> keep:int -> junk:int -> unit
