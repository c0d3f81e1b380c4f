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

    This module is a sink-agnostic facade: the tool pushes entries into an
    opaque {!sink} as the run produces them, so a consumer chooses where
    they go — the in-memory log below (tests, small runs), the streaming
    binary writer in [Tracefile.Writer] (bounded memory regardless of trace
    length), or both via {!tee}. The line-oriented text serialization
    ([C]/[O]/[X]/[R] records) remains the interchange format;
    [Tracefile.Convert] translates between it and the binary format. *)

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

(** [tee a b] forwards every entry to [a] then [b]. *)
val tee : sink -> sink -> sink

(** {2 In-memory log}

    Backed by a growable array: [add] is amortized O(1) and {!iter} /
    {!entries} cost one pass per invocation (no per-call list reversal). *)

type t

val create : unit -> t
val add : t -> entry -> unit

(** [memory_sink t] is [add t] as a {!sink}. *)
val memory_sink : t -> sink

val entries : t -> entry list
val length : t -> int
val iter : t -> (entry -> unit) -> unit

(** {2 Text format} *)

val entry_to_string : entry -> string

(** [entry_of_string line] parses one record.

    @raise Failure on a malformed line. *)
val entry_of_string : string -> entry

(** [write_file path f] streams a text event file: [f emit] calls [emit]
    once per entry, in order, and its result is returned. The file is
    written to [path ^ ".tmp"] and renamed over [path] only once [f]
    returns; if [f] raises, the [.tmp] is removed and the exception
    re-raised, so [path] is never left torn. *)
val write_file : string -> (sink -> 'a) -> 'a

(** [save t path] is [write_file path (iter t)]. *)
val save : t -> string -> unit

(** [iter_file path f] streams a saved text event file record by record in
    constant memory (blank lines skipped).

    @raise Failure on a malformed file. *)
val iter_file : string -> (entry -> unit) -> unit

(** [load path] reads a saved event file into memory.

    @raise Failure on a malformed file. *)
val load : string -> t
