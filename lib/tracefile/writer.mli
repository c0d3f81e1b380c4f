(** Streaming writer of the binary trace container, for every
    {!Frame.kind}. An event-trace writer is a bounded-buffer
    {!Sigil.Event_log.sink}: entries are varint/delta-encoded into an
    in-memory chunk buffer that is framed and flushed to disk every time
    it reaches the chunk target, through one payload buffer made at
    [create], so the trace holds two chunks' worth of memory (plus one
    entry) no matter how long the run is. [close_names] appends the
    symbol and context tables of the producing run (making the file
    self-describing for name resolution), the chunk index, and the
    trailer.

    Crash safety: all output goes to [path ^ ".tmp"] and is renamed to
    [path] only by a successful [close_names], so the destination is always
    either absent, the previous complete trace, or the new complete trace.
    Every [checkpoint_every] data chunks the writer emits an
    index-checkpoint section ({!Frame.ckpt_magic}) and flushes the channel.
    The flush bounds what a SIGKILL can lose to one checkpoint interval;
    [Reader.open_salvage] recovers the flushed chunks by walking their own
    framing and skips intact checkpoints. *)

type t

(** [create ?kind ?chunk_bytes ?checkpoint_every ?options ?options_tag path]
    opens [path ^ ".tmp"] and writes the header. [kind] (default [Events])
    sets the magic of every data chunk; a writer of another kind writes at
    least one chunk, empty if need be, so its file shows the kind.
    [options] is fingerprinted into the header ([Sigil.Options.default]
    when omitted); [options_tag] overrides the fingerprint string verbatim
    (used by [Convert.repair] to preserve the source trace's tag, and empty
    for a recording); [chunk_bytes] is the chunk payload target
    ({!Frame.default_chunk_bytes}); [checkpoint_every] is the
    index-checkpoint cadence in data chunks
    ({!Frame.default_checkpoint_every}). *)
val create :
  ?kind:Frame.kind -> ?chunk_bytes:int -> ?checkpoint_every:int -> ?options:Sigil.Options.t ->
  ?options_tag:string -> string -> t

val add : t -> Sigil.Event_log.entry -> unit

(** [add_record w encode r] is [add] for the other kinds: [encode]
    appends [r] to the chunk buffer. *)
val add_record : t -> (Buffer.t -> 'a -> unit) -> 'a -> unit

(** [sink w] is [add w] as a sink to pass to [Sigil.Tool.create] or
    [Driver.run_workload]. *)
val sink : t -> Sigil.Event_log.sink

(** Entries accepted so far. *)
val entries : t -> int

(** Chunks flushed so far (not counting the partial one being filled). *)
val chunks : t -> int

(** High-water mark of the in-memory chunk buffer — bounded by
    [chunk_bytes] plus one encoded entry. *)
val peak_buffer_bytes : t -> int

(** Bytes produced so far: what is on disk (in the .tmp) plus the buffered
    partial chunk. 0 once closed. Used by fault injection to trip a sink
    after a byte budget. *)
val bytes_written : t -> int

(** Deterministic [trace.*] telemetry samples: entries, flushed chunks,
    index checkpoints, the buffer high-water mark, and the chunk-payload
    size histogram — all pure functions of the entry stream and the writer
    configuration. *)
val telemetry : t -> Telemetry.sample list

(** [close_names names w] flushes the final chunk, writes [names] as the
    embedded tables, the chunk index and the trailer, closes the .tmp and
    renames it over the destination. Idempotent. *)
val close_names : Dbi.Names.t -> t -> unit

(** [close ?symbols ?contexts w] is {!close_names} with the producing
    run's tables ([Dbi.Names.make]), or with [Dbi.Names.empty] when both
    are omitted. It is kept only for perfbench/layerbench, its one
    caller; every other writer is closed with {!close_names}.

    @raise Invalid_argument when only one of them is given. *)
val close : ?symbols:Dbi.Symbol.t -> ?contexts:Dbi.Context.t -> t -> unit

(** [discard w] abandons the trace: closes and deletes the .tmp without
    ever touching the destination path. Idempotent; a no-op after a
    successful [close_names]. Use on the failure path so a crashed run leaves no
    partial artifact behind. *)
val discard : t -> unit
