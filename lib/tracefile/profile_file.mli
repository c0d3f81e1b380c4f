(** Saved profiles: a {!Frame.Profile} kind of the binary trace container
    (docs/FORMATS.md §3 and §6). The embedded tables hold the names and
    the context tree; the sections hold the run the profile came from,
    then one per-context table, its column names once (Table I's fields,
    then [Callgrind.Output.events] when the snapshot has costs) and one
    row per context in id order, then one record per edge and, when the
    snapshot has it, the reuse summary. The text dump is
    [Sigil.Profile_io.render] of the loaded snapshot. *)

(** The run a profile came from, which the readers' report titles name:
    the workload and the name of its input scale. *)
type run = { workload : string; scale : string }

(** [save ?options ~run snap path] writes [snap], whose context ids are
    dense as [Sigil.Profile_io.snapshot_of_tool] makes them;
    [options] is fingerprinted into the header. *)
val save :
  ?options:Sigil.Options.t -> run:run -> Sigil.Profile_io.snapshot -> string -> unit

(** [of_reader r] decodes the profile [r] holds and its run, [None] for
    a profile saved before the run record existed.

    @raise Frame.Corrupt at the offending record's offset when [r] is not
    a profile or holds anything [save] does not write: an undecodable or
    unknown record (the per-context record 1 of older profiles among
    them), a run record given twice or after the columns, columns other than Table I's fields and Callgrind's events or
    given twice, a row before them, of another length or past the
    contexts, an edge naming a context outside the table or recorded
    twice, bins given twice, or a reuse record before the bins, out of
    context order, with no episode or with bins not ascending; and at
    the end of the records when a context has no row. *)
val of_reader : Reader.t -> Sigil.Profile_io.snapshot * run option

(** [load path] is {!of_reader} of [Reader.open_file path]. *)
val load : string -> Sigil.Profile_io.snapshot * run option
