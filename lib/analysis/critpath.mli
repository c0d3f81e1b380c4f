(** Critical-path analysis over sequential event streams (§II-C2, §IV-C).

    Reconstructs the dependency chains of Fig 3 from a stream of
    {!Sigil.Event_log} entries, read from a saved trace or produced live
    by a workload running inside the stream. test/critpath_spec.ml, the
    executable spec that checks this module, states each rule under the
    bracketed name cited here. Every function call is split into
    occurrence nodes, a new one each time the function resumes after a
    child call ([fragment], [fragment-close], [fragment-end]), with

    - an order edge from the previous occurrence of the call ([order-edge]),
    - a call edge from the caller's occurrence that issued the call
      ([call-edge]), and
    - data-dependency edges from the producing call's latest occurrence for
      every transfer the fragment consumed ([data-edge]).

    Functions are modelled as non-blocking: a caller's resumption does not
    depend on the child returning, only on explicit data edges. Node
    self-cost is the operations retired in the fragment; the inclusive cost
    of a node is the longest dependent chain from the program start; the
    program's critical path is the maximum inclusive cost ([length]). The
    maximum theoretical function-level parallelism (Fig 13) is the ratio of
    the serial length (total operations) to the critical-path length. *)

type node = {
  ctx : Dbi.Context.id;
  call : int;
  occurrence : int; (** 0-based occurrence index within the call *)
  self : int; (** operations in this fragment *)
  inclusive : int; (** longest chain from program start through this node *)
}

type t

(** A push-based producer of event entries in trace order: a streaming
    read of the binary event file ([Tracefile.Reader.iter r]; no text
    form is read back), or a live run that hands the consumer to the
    tool as its event sink,
    [fun emit -> ignore (Driver.run_workload ~options ~event_sink:emit w scale)]
    — the analysis never needs the entries materialized. *)
type stream = (Sigil.Event_log.entry -> unit) -> unit

(** [analyze_stream stream] builds every dependency chain and the
    critical path in a single incremental pass over any {!stream}: memory
    is proportional to the dependency DAG (needed for {!critical_path} and
    {!schedule}), never to the encoded log, which is consumed entry by
    entry.

    Call numbers count from 1 per context in Call order, as
    [Dbi.Machine] numbers them, and context ids lie in [0, 0xFFFE]. A
    transfer whose producer is outside that range, or has not been called
    yet, imposes no ordering, like one from program input. The serial
    length stays below 2^32 - 1 and the node records below 4 GB, so every
    inclusive length, node id and finish time fits an unsigned 32-bit
    lane. Sigil's shadow packs its clock into 32 bits as well.

    Each node costs 4 bytes for its inclusive length, a 32-bit lane
    indexed by node id, plus its record in one byte stream: LEB128
    varints of its context, call number, dependency count and, per
    dependency, how many nodes back it lies. Most fields fit one byte, so
    a record is about 7 bytes and a node about 11 bytes on canneal. The
    byte offset of every 64th record costs 1/16 byte more per node. A
    node's self cost and best predecessor are derived from its
    dependencies' inclusive lengths, and the occurrence index of a
    {!critical_path} node by one scan when the path is read. Columns grow
    in fixed blocks (4096 lanes, 64 KB of records), so growth never
    copies the DAG. While the pass runs, the latest occurrence of each
    call costs 4 bytes more, in one row of lanes per context indexed by
    call number: a row starts at 8 lanes and doubles until it fills one
    4096-lane block, then gains whole blocks and is never copied again.
    The pass allocates nothing per entry or per node on the minor heap
    beyond what the stream itself allocates.

    @raise Failure when a Comp, Xfer or Ret does not name the innermost
    open call, a Call's context is out of range or its number is not that
    context's next one, an entry arrives after the root returned, or a
    bound above is passed. The message gives the 0-based entry index and
    the expected and found (ctx, call). {!summarize_stream} fails the
    same way. *)
val analyze_stream : stream -> t

(** {2 O(1)-per-fragment summary}

    When only the Fig 13 numbers are wanted, the DAG need not be retained:
    a fragment's contribution reduces to one int (its inclusive chain
    length), so the pass keeps just the open call stack and the
    latest-occurrence table (4 bytes per call). *)

type summary = {
  s_serial : int; (** total operations (serial schedule length) *)
  s_critical : int; (** longest dependent chain *)
  s_fragments : int; (** occurrence nodes visited *)
}

(** Single pass, no DAG: bit-identical serial/critical/parallelism to
    {!analyze_stream} over the same stream. *)
val summarize_stream : stream -> summary

(** serial / critical (1.0 for an empty program), as {!parallelism}. *)
val summary_parallelism : summary -> float

(** Total operations in the program (serial schedule length). *)
val serial_length : t -> int

(** Length of the longest dependent chain. *)
val critical_path_length : t -> int

(** [parallelism t] = serial / critical (1.0 for an empty program). *)
val parallelism : t -> float

(** Nodes on the critical path, program order (main-side first, leaf
    last), ties broken by [path-end] and [path-pred]. Their occurrence
    indices ([occurrence]) cost one scan of the nodes up to the path's end. *)
val critical_path : t -> node list

(** Distinct contexts along the critical path, leaf-to-start order,
    consecutive duplicates removed ([contexts]) — the paper's
    [drand48_iterate -> ... -> main] rendering. *)
val critical_path_contexts : t -> Dbi.Context.id list

(** Number of occurrence nodes built. *)
val node_count : t -> int

(** {2 Scheduling}

    The paper's closing application: "the functions in parallel paths in a
    program can be mapped onto multiple cores such that dependencies are
    respected... The developer can map dependency chains onto these slots."
    Greedy list scheduling of the fragment DAG onto a fixed number of
    scheduling slots ([schedule]). *)

type schedule = {
  cores : int;
  makespan : int; (** schedule length in operations *)
  speedup : float; (** serial length / makespan *)
  utilization : float; (** busy fraction across all cores *)
}

(** [schedule t ~cores] maps every fragment onto [cores] slots, respecting
    the dependency edges; with unlimited cores the makespan approaches the
    critical-path length. It costs 4 bytes per node, once: every schedule
    of [t] reuses the first one's buffer, so calls on one [t] must not
    run in parallel. Cores past the node count cost nothing. *)
val schedule : t -> cores:int -> schedule
