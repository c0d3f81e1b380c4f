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

    Entries exist only in flight: the tool lends each one to a {!sink}
    as the run produces it and keeps none, so a consumer chooses where
    they go — the streaming binary writer in [Tracefile.Writer], or an
    analysis such as [Analysis.Critpath.analyze_stream] running over the
    live workload. Memory is then bounded by the consumer, never by the
    trace length. The binary trace of [Tracefile] is the one event file:
    it is what tools write and the only thing they read back. The
    one-line text form of {!entry_to_string} ([C]/[O]/[X]/[R] records) is
    output only, a dump for people and for [diff]
    ([Tracefile.Convert.binary_to_text]). *)

type entry =
  | Call of { mutable ctx : Dbi.Context.id; mutable call : int }
  | Comp of {
      mutable ctx : Dbi.Context.id;
      mutable call : int;
      mutable int_ops : int;
      mutable fp_ops : int;
    }
  | Xfer of {
      mutable src_ctx : Dbi.Context.id;
      mutable src_call : int;
      mutable dst_ctx : Dbi.Context.id;
      mutable dst_call : int;
      mutable bytes : int;
      mutable unique_bytes : int;
    }
  | Ret of { mutable ctx : Dbi.Context.id; mutable call : int }
(** The fields are mutable only so that a producer can refill one entry
    per constructor (see {!scratch}); no consumer writes them. *)

(** {2 Call keys}

    One call of one context, the pair every entry carries, packed into
    one int: the context in the bits from 40 up, the call number in the
    40 below. The packing is exact for a context id below 2^22 and a
    call number below 2^40, which holds for every context id up to
    {!Shadow.max_ctx} and every call number the shadow's 32-bit
    writer-call plane stores; keys then order by context, then call. *)

val call_key : Dbi.Context.id -> int -> int
val key_ctx : int -> Dbi.Context.id
val key_call : int -> int

(** {2 Sinks}

    {b Lending contract.} A producer on the hot path — the Sigil tool and
    [Tracefile.Reader.iter] — does not allocate an entry per event: it
    refills one {!scratch} entry per constructor and lends it to the sink.
    An entry passed to a sink is valid for that call only; the producer
    overwrites it with a later entry of the same constructor. A consumer
    that keeps an entry past the call stores [copy e]. No consumer mutates
    an entry it is given. Consumers that act on the fields at once — the
    trace writer, the text dump, [Analysis.Critpath] — copy nothing. *)

(** Where produced entries flow. Applied once per entry, in trace order;
    the entry is lent for the call only. *)
type sink = entry -> unit

(** [copy e] is a fresh entry equal to [e], for a consumer that keeps a
    lent entry. *)
val copy : entry -> entry

(** {2 Producer scratch} *)

(** One reusable entry per constructor. A producer keeps its own: a
    scratch is never shared between producers or domains. *)
type scratch

val scratch : unit -> scratch

(** Each setter refills the scratch entry of its constructor and returns
    it, to be lent to a sink. The returned entry stays valid until the
    next call of the same setter on the same scratch. *)

val set_call : scratch -> ctx:Dbi.Context.id -> call:int -> entry

val set_comp : scratch -> ctx:Dbi.Context.id -> call:int -> int_ops:int -> fp_ops:int -> entry

val set_xfer :
  scratch ->
  src_ctx:Dbi.Context.id ->
  src_call:int ->
  dst_ctx:Dbi.Context.id ->
  dst_call:int ->
  bytes:int ->
  unique_bytes:int ->
  entry

val set_ret : scratch -> ctx:Dbi.Context.id -> call:int -> entry

(** {2 Text dump} *)

(** [entry_to_string e] is [e]'s line in the text dump: [C ctx call],
    [O ctx call int_ops fp_ops], [X src_ctx src_call dst_ctx dst_call
    bytes unique_bytes] or [R ctx call]. No tool parses it back. *)
val entry_to_string : entry -> string
