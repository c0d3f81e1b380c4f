(** Saved profiles: a {!Frame.Profile} kind of the binary trace container
    (docs/FORMATS.md §3 and §6). The embedded tables hold the names and
    the context tree; the sections hold one record per context (calls and
    Table I totals) in preorder, then one per edge, then, when the
    snapshot has them, Callgrind's cost rows and the reuse summary. The
    text dump is [Sigil.Profile_io.render] of the loaded snapshot. *)

(** [save ?options snap path] writes [snap], whose context
    ids are dense as [Sigil.Profile_io.snapshot_of_tool] makes them;
    [options] is fingerprinted into the header. *)
val save : ?options:Sigil.Options.t -> Sigil.Profile_io.snapshot -> string -> unit

(** [of_reader r] decodes the profile [r] holds.

    @raise Frame.Corrupt when [r] is not a profile, a record cannot be
    decoded or names a context outside the table, a context has no
    record or two, the cost columns are not [Callgrind.Output.events] or
    the cost rows do not match them and the contexts, or a reuse record
    precedes the bins or breaks context order. *)
val of_reader : Reader.t -> Sigil.Profile_io.snapshot

(** [load path] is {!of_reader} of [Reader.open_file path]. *)
val load : string -> Sigil.Profile_io.snapshot
