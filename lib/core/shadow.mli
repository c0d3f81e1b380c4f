(** Two-level shadow memory (Table I).

    Holds a shadow object for every unique data byte the guest touches,
    invisible to the guest itself. The structure follows Nethercote &
    Seward: a first-level table indexed by the high bits of the address
    whose second-level chunks are created only when the corresponding part
    of the address space is accessed.

    Baseline shadow object: last writer (context), last reader (context)
    and last reader call number. Reuse mode extends it with the re-use
    count and the first/last access timestamps.

    Two derived notions feed the re-use statistics:

    - an {e episode}: the consecutive reads of one byte by one function
      call (the paper's re-use lifetime is measured "within a function
      call"). An episode ends when a different context or call reads the
      byte, when the byte is overwritten, on eviction, or at program end.
    - a {e version}: the value written by one producer. A version ends on
      overwrite, eviction, or program end; its re-use count is the number
      of non-unique reads it received.

    A FIFO memory limiter ([max_chunks]) frees the oldest second-level
    chunks, trading accuracy for footprint (the paper needs this only for
    dedup and reports the loss as negligible).

    {b Storage.} Chunk state is packed into unboxed 16-bit bigarray planes
    (32-bit fields are striped across a lo/hi pair), and the first level is
    a 64-entry directory of on-demand superpages — see docs/FORMATS.md,
    "Shadow memory layout", for the exact per-chunk host-byte math and the
    packed-field bounds (context ids < 0xFFFF, call numbers and timestamps
    < 2^32; out-of-bound values raise [Invalid_argument]). *)

type t

(** The largest context id the packed planes hold: 0xFFFE, as 0xFFFF is
    their "no context". *)
val max_ctx : int

(** Where finished episodes and versions are reported (the {!Reuse}
    accumulator implements this). *)
type sink = {
  on_episode_end : reader:Dbi.Context.id -> reads:int -> first:int -> last:int -> unit;
      (** A byte's read episode closed: [reads] total reads by this
          (context, call), first/last read timestamps. *)
  on_version_end : producer:Dbi.Context.id -> nonunique:int -> unit;
      (** A byte version died; [nonunique] is its re-use count. Program
          input (bytes read but never written) reports with
          [producer = Dbi.Context.root]. Only emitted in reuse mode. *)
}

(** [create ~reuse ~track_writer_call ~max_chunks ~sink ()] builds an empty
    table. [reuse] allocates the extended shadow objects;
    [track_writer_call] adds the producer call number (used in event-file
    mode). *)
val create : ?reuse:bool -> ?track_writer_call:bool -> ?max_chunks:int -> ?sink:sink -> unit -> t

(** [read_range t ~ctx ~call ~now addr len on_run] shadows a [len]-byte
    read by call [call] of context [ctx] as one operation and reports it
    as {e runs}: maximal spans of consecutive bytes that share the same
    producer and producer call. The chunk is resolved once per
    within-chunk span, and the caller pays its per-access accounting
    (profile update, transfer accumulation) once per run instead of once
    per byte.

    Each byte is classified as Table I prescribes. Its producer is its last
    writer, or {!Dbi.Context.root} when it was never written (program
    input). Its read is {e unique} (first use) unless [(ctx, call)] is the
    byte's last reader since its last write — the reason Table I stores
    both the last reader and its call number. Cross-call re-reads by the
    same function are unique: an accelerator re-fetches its inputs on
    every invocation. A read by any other reader in between also makes
    the next read unique again (one last reader per byte, not a reader
    set).

    Callback contract:
    - [on_run ~producer ~producer_call ~bytes ~unique_bytes] is called once
      per run, in address order, before [read_range] returns. [bytes] is
      positive and the [bytes] of one call sum to [len]; [unique_bytes] of
      them were unique reads. [producer_call] is the producer's call
      number when [track_writer_call] was set (event files need it to
      attach transfer edges to the right call of the producer), and 0
      otherwise.
    - Two consecutive runs never share both [producer] and
      [producer_call]. Runs coalesce across chunk boundaries.
    - Sink callbacks (episode and version ends, including those of chunks
      evicted mid-range) fire per byte as the read walks the span, so a run
      is reported only after the sink calls of all its bytes, and after
      those of the first byte of the next run.
    - [on_run] must not call back into [t].

    Nothing is allocated per call: [on_run] should be built once, not per
    read.

    @raise Invalid_argument if the span leaves the shadowed region or
    [len <= 0]. *)
val read_range :
  t ->
  ctx:Dbi.Context.id ->
  call:int ->
  now:int ->
  int ->
  int ->
  (producer:Dbi.Context.id -> producer_call:int -> bytes:int -> unique_bytes:int -> unit) ->
  unit

(** [write_range t ~ctx ~call ~now addr len] records a [len]-byte write,
    resolving each chunk once per span: each byte's previous version (if
    any) is flushed to the sink and [ctx], call [call], becomes its
    producer. *)
val write_range : t -> ctx:Dbi.Context.id -> call:int -> now:int -> int -> int -> unit

(** [flush t] ends every live episode and version (program end), then
    unmaps every chunk and superpage, so the planes outlive the run only
    until the GC takes them. The table remains usable, every byte back to
    never touched: a later access maps fresh chunks, which the FIFO limit
    bounds as before. What [flush] unmapped still counts in {!telemetry}
    and the footprints, which keep describing the state the run ended
    with: [flush] changes none of their values. *)
val flush : t -> unit

(** {2 Introspection} *)

(** Highest shadowable address (exclusive). *)
val max_address : int

val chunk_bytes : int

(** Chunks freed by the FIFO limiter. *)
val evictions : t -> int

(** Current footprint estimate in host bytes (directory + live superpages
    + live chunks), counting what {!flush} unmapped as still live. *)
val footprint_bytes : t -> int

val footprint_peak_bytes : t -> int

(** Deterministic [shadow.*] telemetry samples: chunk allocations, live /
    peak chunk counts, evictions, coalesced range-operation counters, the
    power-of-two read-size histogram, and the peak footprint. All values
    derive from the guest event stream only. *)
val telemetry : t -> Telemetry.sample list
