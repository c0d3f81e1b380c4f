(** Sequential event-file representation (§II-C2).

    Sigil's second output form: the execution as a list of dependent
    "events" — fragments of computation separated by data-transfer edges.
    Order is preserved *between* functions but not within one (the paper
    does not distinguish the order of events inside a function), so each
    fragment carries its operation totals and the set of transfers it
    consumed.

    Entries:
    - [Call]: a context was entered ([call] is its per-context sequence
      number);
    - [Comp]: computation retired by one fragment of one call;
    - [Xfer]: bytes flowing from a producer call to the current fragment;
    - [Ret]: the call returned.

    Entries exist only in flight: the tool pushes each one into a {!sink}
    as the run produces it and keeps none, so a consumer chooses where
    they go — the streaming binary writer in [Tracefile.Writer], the text
    file of {!write_file}, or an analysis such as
    [Analysis.Critpath.analyze_stream] running over the live workload.
    Memory is then bounded by the consumer, never by the trace length. The
    line-oriented text serialization ([C]/[O]/[X]/[R] records) remains the
    interchange format; [Tracefile.Convert] translates between it and the
    binary format. *)

type entry =
  | Call of { ctx : Dbi.Context.id; call : int }
  | Comp of { ctx : Dbi.Context.id; call : int; int_ops : int; fp_ops : int }
  | Xfer of {
      src_ctx : Dbi.Context.id;
      src_call : int;
      dst_ctx : Dbi.Context.id;
      dst_call : int;
      bytes : int;
      unique_bytes : int;
    }
  | Ret of { ctx : Dbi.Context.id; call : int }

(** {2 Sinks} *)

(** Where produced entries flow. Applied once per entry, in trace order. *)
type sink = entry -> unit

(** {2 Text format} *)

val entry_to_string : entry -> string

(** [entry_of_string line] parses one record.

    @raise Failure on a malformed line. *)
val entry_of_string : string -> entry

(** [write_file path f] streams a text event file: [f emit] calls [emit]
    once per entry, in order, and its result is returned. The file is
    written through [Dbi.Atomic_file.write]: [path] appears only once [f]
    returns; if [f] raises, an existing [path] keeps its bytes and no
    [.tmp] is left behind. *)
val write_file : string -> (sink -> 'a) -> 'a

(** [iter_file path f] streams a saved text event file record by record in
    constant memory (blank lines skipped).

    @raise Failure on a malformed file. *)
val iter_file : string -> (entry -> unit) -> unit
