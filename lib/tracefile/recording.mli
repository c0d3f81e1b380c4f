(** Raw guest recordings: record every primitive event once, replay it
    into any tools offline. A recording is a {!Frame.Recording} kind of
    the binary trace container (docs/FORMATS.md §6). Enters carry symbol
    ids, resolved through the embedded symbol table (a stripped run
    records its ["???:n"] names); system calls appear as their
    pseudo-function events. Caller-side call overhead is recorded as
    explicit [Op (Int_op, n)] records, so replay runs a zero-overhead machine and
    reproduces the original clock and per-context costs exactly. *)

type record =
  | Enter of Dbi.Symbol.id
  | Leave
  | Access of Dbi.Event.access * int * int  (** address, size *)
  | Op of Dbi.Event.op_kind * int
  | Branch of bool  (** taken? *)

(** [add w r] appends [r] to a [Writer.create ~kind:Recording] writer. *)
val add : Writer.t -> record -> unit

(** [recorder w] is a tool that adds every event to [w]; close [w] with
    the machine's tables once the run finishes. *)
val recorder : Writer.t -> Dbi.Machine.t -> Dbi.Tool.t

(** [record path workload] runs [workload] under the
    recorder alone and publishes [path] by the writer's rename; when the
    workload raises, neither [path] nor its [.tmp] is left. *)
val record : string -> (Dbi.Machine.t -> unit) -> Dbi.Machine.t

(** [iter r f] applies [f offset record] to each record in file order.

    @raise Frame.Corrupt when [r] is not a recording or a record cannot
    be decoded. *)
val iter : Reader.t -> (int -> record -> unit) -> unit

(** [dump r oc] writes one [E name], [L], [R addr size], [W addr size],
    [I n], [F n] or [B 0|1] line per record; returns the record count. *)
val dump : Reader.t -> out_channel -> int

(** [replay ~tools r] re-runs recording [r] on a fresh machine.

    @raise Frame.Corrupt at the offending record on an unknown symbol id,
    a size below 1, a range outside [\[0, Addr_space.stack_top)], a
    negative op count or a leave with no live call, and at
    {!Reader.data_end} when calls are still live at the end. *)
val replay : tools:(Dbi.Machine.t -> Dbi.Tool.t) list -> Reader.t -> Dbi.Machine.t
