type t = {
  oc : out_channel;
  magic : int; (* the data sections' magic: the file's kind *)
  final_path : string;
  tmp_path : string;
  chunk_bytes : int;
  checkpoint_every : int;
  buf : Buffer.t; (* current chunk payload *)
  mutable payload : Bytes.t; (* a section's payload, copied out of its buffer *)
  head : Buffer.t; (* scratch for headers / trailer sections *)
  delta : Frame.delta;
  mutable chunk_entries : int;
  mutable total_entries : int;
  mutable index_rev : (int * int * int) list; (* offset, entries, payload bytes *)
  mutable chunks_since_ckpt : int;
  mutable peak_buffer : int;
  mutable checkpoints : int;
  chunk_payload : Telemetry.Hist.t; (* payload bytes per flushed chunk *)
  mutable closed : bool;
}

let create ?(kind = Frame.Events) ?(chunk_bytes = Frame.default_chunk_bytes)
    ?(checkpoint_every = Frame.default_checkpoint_every) ?options ?options_tag path =
  if chunk_bytes <= 0 then invalid_arg "Tracefile.Writer.create: chunk_bytes must be positive";
  if checkpoint_every <= 0 then
    invalid_arg "Tracefile.Writer.create: checkpoint_every must be positive";
  (* all output goes to [path].tmp; the real name appears only on [close],
     so a crash mid-write never clobbers an existing good trace *)
  let tmp_path = path ^ ".tmp" in
  let oc = open_out_bin tmp_path in
  let head = Buffer.create 256 in
  Buffer.add_string head Frame.magic;
  Buffer.add_char head (Char.chr Frame.version);
  let tag =
    match options_tag with
    | Some tag -> tag
    | None -> Sigil.Options.fingerprint (Option.value options ~default:Sigil.Options.default)
  in
  Varint.write head (String.length tag);
  Buffer.add_string head tag;
  Varint.write head chunk_bytes;
  Buffer.output_buffer oc head;
  Buffer.clear head;
  {
    oc;
    magic = Frame.section_magic kind;
    final_path = path;
    tmp_path;
    chunk_bytes;
    checkpoint_every;
    buf = Buffer.create (chunk_bytes + 64);
    payload = Bytes.create (chunk_bytes + 64);
    head;
    delta = Frame.delta ();
    chunk_entries = 0;
    total_entries = 0;
    index_rev = [];
    chunks_since_ckpt = 0;
    peak_buffer = 0;
    checkpoints = 0;
    chunk_payload = Telemetry.Hist.create ();
    closed = false;
  }

(* (offset, entries, payload bytes) per data chunk, in file order: the
   body of both the final chunk index and every checkpoint. *)
let add_index_triples b index =
  List.iter
    (fun (offset, entries, bytes) ->
      Varint.write b offset;
      Varint.write b entries;
      Varint.write b bytes)
    index

(* The one place a section is framed: the 16-byte header, then the
   payload [b]. It is checksummed and written from the writer's one
   payload buffer, which grows only when a section overruns it. *)
let write_section t magic count b =
  let len = Buffer.length b in
  if len > Bytes.length t.payload then t.payload <- Bytes.create len;
  Buffer.blit b 0 t.payload 0 len;
  Buffer.clear t.head;
  Frame.add_u32 t.head magic;
  Frame.add_u32 t.head count;
  Frame.add_u32 t.head len;
  Frame.add_u32 t.head (Crc32.bytes t.payload ~pos:0 ~len);
  Buffer.output_buffer t.oc t.head;
  output t.oc t.payload 0 len;
  Buffer.clear t.head

(* An index checkpoint records the entry total so far and the index
   triples of the chunks before it, then flushes the channel: the flush is
   what bounds a SIGKILL's loss to one checkpoint interval. Readers never
   decode the payload; [Reader.open_salvage] checks its CRC and skips it. *)
let write_checkpoint t =
  let b = Buffer.create 256 in
  Varint.write b t.total_entries;
  let index = List.rev t.index_rev in
  add_index_triples b index;
  write_section t Frame.ckpt_magic (List.length index) b;
  t.checkpoints <- t.checkpoints + 1;
  flush t.oc

(* [~force] writes the section even when empty: a file of another kind
   than events must hold at least one section to show its kind *)
let flush_chunk ?(force = false) t =
  if t.chunk_entries > 0 || force then begin
    let offset = pos_out t.oc in
    let payload_len = Buffer.length t.buf in
    write_section t t.magic t.chunk_entries t.buf;
    Buffer.clear t.buf;
    t.index_rev <- (offset, t.chunk_entries, payload_len) :: t.index_rev;
    Telemetry.Hist.observe t.chunk_payload payload_len;
    t.chunk_entries <- 0;
    (* each chunk decodes independently *)
    Frame.reset t.delta;
    t.chunks_since_ckpt <- t.chunks_since_ckpt + 1;
    if t.chunks_since_ckpt >= t.checkpoint_every then begin
      t.chunks_since_ckpt <- 0;
      write_checkpoint t
    end
  end

(* Counts the record just encoded into [t.buf] and closes the section at
   the chunk target. *)
let commit t =
  t.chunk_entries <- t.chunk_entries + 1;
  t.total_entries <- t.total_entries + 1;
  let len = Buffer.length t.buf in
  if len > t.peak_buffer then t.peak_buffer <- len;
  if len >= t.chunk_bytes then flush_chunk t

let add t e =
  if t.closed then invalid_arg "Tracefile.Writer.add: writer is closed";
  Frame.encode_entry t.delta t.buf e;
  commit t

let add_record t encode r =
  if t.closed then invalid_arg "Tracefile.Writer.add_record: writer is closed";
  encode t.buf r;
  commit t

let sink t = add t
let entries t = t.total_entries
let chunks t = List.length t.index_rev
let peak_buffer_bytes t = t.peak_buffer
let bytes_written t = if t.closed then 0 else pos_out t.oc + Buffer.length t.buf

(* Everything here is a pure function of the entry stream and the writer
   configuration, so the samples are deterministic (the sequential event
   trace itself is). *)
let telemetry t =
  Telemetry.
    [
      count "trace.entries" t.total_entries;
      count "trace.chunks" (List.length t.index_rev);
      count "trace.checkpoints" t.checkpoints;
      peak "trace.peak_buffer_bytes" t.peak_buffer;
      hist "trace.chunk_payload_bytes" t.chunk_payload;
    ]

(* The tables section: the symbol count, the stripped byte and the
   names, then the context count and each context's (parent, fn); the
   root (0) is implicit. *)
let write_tables t (names : Dbi.Names.t) =
  let b = t.head in
  Buffer.clear b;
  Varint.write b (Array.length names.symbols);
  Buffer.add_char b (if names.stripped then '\001' else '\000');
  Array.iter
    (fun name ->
      Varint.write b (String.length name);
      Buffer.add_string b name)
    names.symbols;
  let count = Array.length names.parent in
  Varint.write b count;
  for ctx = 1 to count - 1 do
    Varint.write b names.parent.(ctx);
    Varint.write b names.fn.(ctx)
  done;
  Buffer.output_buffer t.oc b;
  Buffer.clear b

let write_index t index =
  let b = t.head in
  Buffer.clear b;
  Varint.write b (List.length index);
  add_index_triples b index;
  Buffer.output_buffer t.oc b;
  Buffer.clear b

let close_names names t =
  if not t.closed then begin
    flush_chunk ~force:(t.index_rev = [] && t.magic <> Frame.chunk_magic) t;
    let tables_offset = pos_out t.oc in
    write_tables t names;
    let index_offset = pos_out t.oc in
    write_index t (List.rev t.index_rev);
    let b = t.head in
    Buffer.clear b;
    Frame.add_u64 b tables_offset;
    Frame.add_u64 b index_offset;
    Frame.add_u64 b t.total_entries;
    Buffer.add_string b Frame.trailer_magic;
    Buffer.output_buffer t.oc b;
    close_out t.oc;
    t.closed <- true;
    (* atomic publication: the destination either keeps its old content or
       gets the complete new trace, nothing in between *)
    Sys.rename t.tmp_path t.final_path
  end

let close ?symbols ?contexts t =
  close_names
    (match (symbols, contexts) with
    | Some symbols, Some contexts -> Dbi.Names.make ~symbols ~contexts
    | None, None -> Dbi.Names.empty
    | _ -> invalid_arg "Tracefile.Writer.close: symbols and contexts go together")
    t

let discard t =
  if not t.closed then begin
    t.closed <- true;
    close_out_noerr t.oc;
    try Sys.remove t.tmp_path with Sys_error _ -> ()
  end
