type sink = {
  on_episode_end : reader:Dbi.Context.id -> reads:int -> first:int -> last:int -> unit;
  on_version_end : producer:Dbi.Context.id -> nonunique:int -> unit;
}

let null_sink =
  {
    on_episode_end = (fun ~reader:_ ~reads:_ ~first:_ ~last:_ -> ());
    on_version_end = (fun ~producer:_ ~nonunique:_ -> ());
  }

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_bytes = chunk_size
let max_address = 1 lsl 30
let chunk_index_count = max_address lsr chunk_bits

(* The first level is itself paged: a 64-entry directory of on-demand
   32 KB superpages instead of one always-resident 2 MB pointer array, so
   the footprint floor is a few KB rather than 2 MB. *)
let page_bits = 12
let page_slots = 1 lsl page_bits
let dir_len = chunk_index_count lsr page_bits

(* Packed per-byte shadow fields (see docs/FORMATS.md, "Shadow memory
   layout"). Context ids live in one unsigned 16-bit plane (0xFFFF is the
   "invalid" sentinel, so ids must stay below [max_ctx]); 32-bit fields —
   call numbers, timestamps, counters — are striped across a lo/hi pair of
   16-bit planes. Everything stays an unboxed OCaml [int] on access. *)
type i16 = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let no_ctx = 0xFFFF
let max_ctx = 0xFFFE
let max_u32 = 0xFFFF_FFFF

let make_i16 init : i16 =
  let a = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout chunk_size in
  Bigarray.Array1.fill a init;
  a

type u32 = { lo : i16; hi : i16 }

let make_u32 () = { lo = make_i16 0; hi = make_i16 0 }

let[@inline] u32_get p i =
  Bigarray.Array1.unsafe_get p.lo i lor (Bigarray.Array1.unsafe_get p.hi i lsl 16)

let[@inline] u32_set p i v =
  Bigarray.Array1.unsafe_set p.lo i (v land 0xFFFF);
  Bigarray.Array1.unsafe_set p.hi i ((v lsr 16) land 0xFFFF)

type reuse_chunk = {
  ep_first : u32;
  ep_last : u32;
  ep_reads : u32;
  ver_nonunique : u32;
}

type chunk = {
  index : int;
  writer : i16; (* producer context, no_ctx = invalid *)
  writer_call : u32 option; (* producer call number, event mode only *)
  reader : i16; (* last reader context, no_ctx = none *)
  reader_call : u32;
  reuse : reuse_chunk option;
}

type t = {
  dir : chunk option array option array;
  reuse_mode : bool;
  track_writer_call : bool;
  max_chunks : int;
  sink : sink;
  fifo : int Queue.t; (* chunk indices, creation order *)
  mutable live : int; (* mapped chunks: what the FIFO limit bounds *)
  mutable pages : int; (* mapped superpages: only [flush] unmaps them *)
  (* what [flush] unmapped: counters and footprints still count it, as
     the state the run ended with *)
  mutable released_chunks : int;
  mutable released_pages : int;
  mutable peak : int;
  mutable evictions : int;
  mutable last_chunk : chunk; (* single-entry lookup cache, [no_chunk] when empty *)
  (* telemetry probes: plain int bumps, once per call (not per byte) *)
  mutable allocs : int;
  mutable range_reads : int;
  mutable range_read_bytes : int;
  mutable range_runs : int;
  mutable range_writes : int;
  mutable range_write_bytes : int;
  read_size : Telemetry.Hist.t;
}

(* The empty lookup cache: its index matches no address, so [chunk_for]
   never returns it and its empty planes are never touched. *)
let no_chunk =
  let empty () = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout 0 in
  {
    index = -1;
    writer = empty ();
    writer_call = None;
    reader = empty ();
    reader_call = { lo = empty (); hi = empty () };
    reuse = None;
  }

let create ?(reuse = false) ?(track_writer_call = false) ?max_chunks ?(sink = null_sink) () =
  {
    dir = Array.make dir_len None;
    reuse_mode = reuse;
    track_writer_call;
    max_chunks = (match max_chunks with None -> max_int | Some n -> n);
    sink;
    fifo = Queue.create ();
    live = 0;
    pages = 0;
    released_chunks = 0;
    released_pages = 0;
    peak = 0;
    evictions = 0;
    last_chunk = no_chunk;
    allocs = 0;
    range_reads = 0;
    range_read_bytes = 0;
    range_runs = 0;
    range_writes = 0;
    range_write_bytes = 0;
    read_size = Telemetry.Hist.create ();
  }

(* Host bytes per chunk: 2 B writer + 2 B reader + 4 B reader call, plus
   4 B producer call in event mode and 16 B of reuse fields in reuse mode,
   per shadowed guest byte; each 16-bit plane adds a small bigarray
   header. *)
let per_chunk_bytes reuse track_writer_call =
  let shadow_bytes =
    2 + 2 + 4 + (if track_writer_call then 4 else 0) + if reuse then 16 else 0
  in
  let planes = 4 + (if track_writer_call then 2 else 0) + if reuse then 8 else 0 in
  (shadow_bytes * chunk_size) + (planes * 16)

let page_bytes = (page_slots * 8) + 16

let chunks_live t = t.live + t.released_chunks
let pages t = t.pages + t.released_pages

let footprint_bytes t =
  (dir_len * 8) + (pages t * page_bytes)
  + (chunks_live t * per_chunk_bytes t.reuse_mode t.track_writer_call)

let footprint_peak_bytes t =
  (dir_len * 8) + (pages t * page_bytes)
  + (t.peak * per_chunk_bytes t.reuse_mode t.track_writer_call)

let evictions t = t.evictions

(* Reports the byte's open episode and version to the sink (reuse mode
   only: otherwise there is nothing to report). *)
let end_byte t (c : chunk) i =
  match c.reuse with
  | None -> ()
  | Some r ->
    let reader = Bigarray.Array1.unsafe_get c.reader i in
    let writer = Bigarray.Array1.unsafe_get c.writer i in
    let reads = u32_get r.ep_reads i in
    if reader <> no_ctx && reads > 0 then
      t.sink.on_episode_end ~reader ~reads ~first:(u32_get r.ep_first i)
        ~last:(u32_get r.ep_last i);
    (* program-input bytes (never written) are data elements too; their
       producer is the root pseudo-context *)
    if writer <> no_ctx || reader <> no_ctx then begin
      let producer = if writer <> no_ctx then writer else Dbi.Context.root in
      t.sink.on_version_end ~producer ~nonunique:(u32_get r.ver_nonunique i)
    end

let flush_byte t (c : chunk) i =
  end_byte t c i;
  Bigarray.Array1.unsafe_set c.writer i no_ctx;
  (match c.writer_call with None -> () | Some wc -> u32_set wc i 0);
  Bigarray.Array1.unsafe_set c.reader i no_ctx;
  u32_set c.reader_call i 0;
  match c.reuse with
  | None -> ()
  | Some r ->
    u32_set r.ep_first i 0;
    u32_set r.ep_last i 0;
    u32_set r.ep_reads i 0;
    u32_set r.ver_nonunique i 0

let[@inline] byte_live c i =
  Bigarray.Array1.unsafe_get c.writer i <> no_ctx
  || Bigarray.Array1.unsafe_get c.reader i <> no_ctx

let flush_chunk t c =
  for i = 0 to chunk_size - 1 do
    if byte_live c i then flush_byte t c i
  done

let slot_of t index =
  match t.dir.(index lsr page_bits) with
  | None -> None
  | Some page -> page.(index land (page_slots - 1))

(* Flushes and unmaps the oldest chunk and returns it: every byte is back
   to its never-touched state, so its planes can back the next chunk. *)
let evict_one t =
  match Queue.take_opt t.fifo with
  | None -> None
  | Some index -> (
    match slot_of t index with
    | None -> None
    | Some c ->
      flush_chunk t c;
      (match t.dir.(index lsr page_bits) with
      | Some page -> page.(index land (page_slots - 1)) <- None
      | None -> assert false);
      t.live <- t.live - 1;
      t.evictions <- t.evictions + 1;
      if t.last_chunk.index = index then t.last_chunk <- no_chunk;
      Some c)

let page_for t index =
  let d = index lsr page_bits in
  match t.dir.(d) with
  | Some page -> page
  | None ->
    let page = Array.make page_slots None in
    t.dir.(d) <- Some page;
    t.pages <- t.pages + 1;
    page

let fresh_chunk t index =
  let reuse =
    if t.reuse_mode then
      Some
        {
          ep_first = make_u32 ();
          ep_last = make_u32 ();
          ep_reads = make_u32 ();
          ver_nonunique = make_u32 ();
        }
    else None
  in
  {
    index;
    writer = make_i16 no_ctx;
    writer_call = (if t.track_writer_call then Some (make_u32 ()) else None);
    reader = make_i16 no_ctx;
    reader_call = make_u32 ();
    reuse;
  }

(* Under the FIFO limit the evicted chunk's planes are recycled instead of
   allocating new Bigarrays, so dead planes never wait for the GC. *)
let new_chunk t index =
  let recycled = if t.live >= t.max_chunks then evict_one t else None in
  let c =
    match recycled with
    | Some old -> { old with index }
    | None -> fresh_chunk t index
  in
  (* [shadow.chunks_allocated] counts installs, recycled or fresh *)
  t.allocs <- t.allocs + 1;
  let page = page_for t index in
  page.(index land (page_slots - 1)) <- Some c;
  Queue.add index t.fifo;
  t.live <- t.live + 1;
  if chunks_live t > t.peak then t.peak <- chunks_live t;
  c

let chunk_for t addr =
  if addr < 0 || addr >= max_address then invalid_arg "Shadow: address out of range";
  let index = addr lsr chunk_bits in
  if t.last_chunk.index = index then t.last_chunk
  else begin
    let c =
      match slot_of t index with
      | Some c -> c
      | None -> new_chunk t index
    in
    t.last_chunk <- c;
    c
  end

(* Packed-field bounds, checked once per operation (not per byte). *)
let[@inline] check_packed ctx call now =
  if ctx < 0 || ctx > max_ctx then
    invalid_arg "Shadow: context id exceeds packed 16-bit bound";
  if call < 0 || call > max_u32 then
    invalid_arg "Shadow: call number exceeds packed 32-bit bound";
  if now < 0 || now > max_u32 then
    invalid_arg "Shadow: timestamp exceeds packed 32-bit bound"

(* One byte of read bookkeeping. The result is packed into a single
   immediate int — producer lsl 33 | producer_call lsl 1 | unique — so the
   hot range loop never allocates. *)
let[@inline] read_byte (c : chunk) i ~ctx ~call ~now sink =
  let writer = Bigarray.Array1.unsafe_get c.writer i in
  let producer = if writer <> no_ctx then writer else Dbi.Context.root in
  let producer_call =
    match c.writer_call with
    | Some wc when writer <> no_ctx -> u32_get wc i
    | Some _ | None -> 0
  in
  (* Unique vs non-unique follows the (function, call) pair, which is why
     Table I stores both the last reader and the last reader call: a read
     is non-unique only when the same call of the same function already
     read the byte. An accelerator must re-fetch its inputs on every
     invocation, so cross-call re-reads count as unique communication. *)
  let prev_reader = Bigarray.Array1.unsafe_get c.reader i in
  let same_episode = prev_reader = ctx && u32_get c.reader_call i = call in
  (match c.reuse with
  | None -> ()
  | Some r ->
    if same_episode then begin
      u32_set r.ep_reads i (u32_get r.ep_reads i + 1);
      u32_set r.ep_last i now;
      u32_set r.ver_nonunique i (u32_get r.ver_nonunique i + 1)
    end
    else begin
      (* close the previous reader's episode, open a new one *)
      let reads = u32_get r.ep_reads i in
      if prev_reader <> no_ctx && reads > 0 then
        sink.on_episode_end ~reader:prev_reader ~reads ~first:(u32_get r.ep_first i)
          ~last:(u32_get r.ep_last i);
      u32_set r.ep_first i now;
      u32_set r.ep_last i now;
      u32_set r.ep_reads i 1
    end);
  Bigarray.Array1.unsafe_set c.reader i ctx;
  u32_set c.reader_call i call;
  (producer lsl 33) lor (producer_call lsl 1) lor (if same_episode then 0 else 1)

let[@inline] packed_producer p = p lsr 33
let[@inline] packed_producer_call p = (p lsr 1) land max_u32
let[@inline] packed_unique p = p land 1 = 1

let[@inline] check_range addr len =
  if len <= 0 then invalid_arg "Shadow: range length must be positive";
  if addr < 0 || addr > max_address - len then invalid_arg "Shadow: address out of range"

(* Both loops keep the live run in local refs (never captured by a
   closure, so they stay unboxed) and hand each finished run straight to
   [on_run]: a range read allocates nothing. *)

(* Baseline-mode fast path (no reuse stats, no producer calls): the
   per-byte work is three plane loads, a compare, and at most three plane
   stores — every configuration match is hoisted out of the loop and the
   producer call is constantly 0, so runs split on producer only. *)
let read_range_fast t ~ctx ~call addr len on_run =
  let run_producer = ref (-1) in
  let run_bytes = ref 0 in
  let run_unique = ref 0 in
  let call_lo = call land 0xFFFF in
  let call_hi = call lsr 16 in
  let pos = ref addr in
  let remaining = ref len in
  while !remaining > 0 do
    (* resolve the chunk once per within-chunk span, not once per byte *)
    let c = chunk_for t !pos in
    let i0 = !pos land (chunk_size - 1) in
    let span = min !remaining (chunk_size - i0) in
    let writer_a = c.writer in
    let reader_a = c.reader in
    let rc_lo = c.reader_call.lo in
    let rc_hi = c.reader_call.hi in
    for i = i0 to i0 + span - 1 do
      let writer = Bigarray.Array1.unsafe_get writer_a i in
      let producer = if writer <> no_ctx then writer else Dbi.Context.root in
      let unique =
        if
          Bigarray.Array1.unsafe_get reader_a i = ctx
          && Bigarray.Array1.unsafe_get rc_lo i = call_lo
          && Bigarray.Array1.unsafe_get rc_hi i = call_hi
        then 0 (* same episode: reader fields already hold (ctx, call) *)
        else begin
          Bigarray.Array1.unsafe_set reader_a i ctx;
          Bigarray.Array1.unsafe_set rc_lo i call_lo;
          Bigarray.Array1.unsafe_set rc_hi i call_hi;
          1
        end
      in
      if producer = !run_producer && !run_bytes > 0 then begin
        run_bytes := !run_bytes + 1;
        run_unique := !run_unique + unique
      end
      else begin
        if !run_bytes > 0 then begin
          t.range_runs <- t.range_runs + 1;
          on_run ~producer:!run_producer ~producer_call:0 ~bytes:!run_bytes
            ~unique_bytes:!run_unique
        end;
        run_producer := producer;
        run_bytes := 1;
        run_unique := unique
      end
    done;
    pos := !pos + span;
    remaining := !remaining - span
  done;
  t.range_runs <- t.range_runs + 1;
  on_run ~producer:!run_producer ~producer_call:0 ~bytes:!run_bytes ~unique_bytes:!run_unique

let read_range_general t ~ctx ~call ~now addr len on_run =
  (* live run accumulator; consecutive bytes sharing (producer, call)
     coalesce into one run *)
  let run_producer = ref (-1) in
  let run_pcall = ref 0 in
  let run_bytes = ref 0 in
  let run_unique = ref 0 in
  let pos = ref addr in
  let remaining = ref len in
  while !remaining > 0 do
    (* resolve the chunk once per within-chunk span, not once per byte *)
    let c = chunk_for t !pos in
    let i0 = !pos land (chunk_size - 1) in
    let span = min !remaining (chunk_size - i0) in
    for i = i0 to i0 + span - 1 do
      let p = read_byte c i ~ctx ~call ~now t.sink in
      let producer = packed_producer p in
      let producer_call = packed_producer_call p in
      let unique = if packed_unique p then 1 else 0 in
      if !run_bytes > 0 && producer = !run_producer && producer_call = !run_pcall then begin
        run_bytes := !run_bytes + 1;
        run_unique := !run_unique + unique
      end
      else begin
        if !run_bytes > 0 then begin
          t.range_runs <- t.range_runs + 1;
          on_run ~producer:!run_producer ~producer_call:!run_pcall ~bytes:!run_bytes
            ~unique_bytes:!run_unique
        end;
        run_producer := producer;
        run_pcall := producer_call;
        run_bytes := 1;
        run_unique := unique
      end
    done;
    pos := !pos + span;
    remaining := !remaining - span
  done;
  t.range_runs <- t.range_runs + 1;
  on_run ~producer:!run_producer ~producer_call:!run_pcall ~bytes:!run_bytes
    ~unique_bytes:!run_unique

let read_range t ~ctx ~call ~now addr len on_run =
  check_packed ctx call now;
  check_range addr len;
  t.range_reads <- t.range_reads + 1;
  t.range_read_bytes <- t.range_read_bytes + len;
  Telemetry.Hist.observe t.read_size len;
  if t.reuse_mode || t.track_writer_call then read_range_general t ~ctx ~call ~now addr len on_run
  else read_range_fast t ~ctx ~call addr len on_run

(* In non-reuse mode the sink calls of [flush_byte] are no-ops, so an
   overwrite only needs to clear the reader episode — no full flush. *)
let[@inline] write_byte t (c : chunk) i ~ctx ~call =
  (match c.reuse with
  | None ->
    Bigarray.Array1.unsafe_set c.reader i no_ctx;
    u32_set c.reader_call i 0
  | Some _ -> if byte_live c i then flush_byte t c i);
  Bigarray.Array1.unsafe_set c.writer i ctx;
  match c.writer_call with None -> () | Some wc -> u32_set wc i call

let write_span_fast (c : chunk) i0 span ~ctx =
  let reader_a = c.reader in
  let rc_lo = c.reader_call.lo in
  let rc_hi = c.reader_call.hi in
  let writer_a = c.writer in
  for i = i0 to i0 + span - 1 do
    Bigarray.Array1.unsafe_set reader_a i no_ctx;
    Bigarray.Array1.unsafe_set rc_lo i 0;
    Bigarray.Array1.unsafe_set rc_hi i 0;
    Bigarray.Array1.unsafe_set writer_a i ctx
  done

let write_range t ~ctx ~call ~now:_ addr len =
  check_packed ctx call 0;
  check_range addr len;
  t.range_writes <- t.range_writes + 1;
  t.range_write_bytes <- t.range_write_bytes + len;
  let fast = (not t.reuse_mode) && not t.track_writer_call in
  let pos = ref addr in
  let remaining = ref len in
  while !remaining > 0 do
    let c = chunk_for t !pos in
    let i0 = !pos land (chunk_size - 1) in
    let span = min !remaining (chunk_size - i0) in
    if fast then write_span_fast c i0 span ~ctx
    else
      for i = i0 to i0 + span - 1 do
        write_byte t c i ~ctx ~call
      done;
    pos := !pos + span;
    remaining := !remaining - span
  done

(* Program end: reports every live byte, in address order, then unmaps
   every chunk and superpage instead of resetting them byte by byte. *)
let flush t =
  if t.reuse_mode then
    Array.iter
      (function
        | Some page ->
          Array.iter
            (function
              | Some c ->
                for i = 0 to chunk_size - 1 do
                  if byte_live c i then end_byte t c i
                done
              | None -> ())
            page
        | None -> ())
      t.dir;
  Array.fill t.dir 0 dir_len None;
  Queue.clear t.fifo;
  t.last_chunk <- no_chunk;
  t.released_chunks <- t.released_chunks + t.live;
  t.live <- 0;
  t.released_pages <- t.released_pages + t.pages;
  t.pages <- 0

let telemetry t =
  Telemetry.
    [
      count "shadow.chunks_allocated" t.allocs;
      gauge "shadow.chunks_live" (chunks_live t);
      peak "shadow.chunks_peak" t.peak;
      gauge "shadow.pages" (pages t);
      count "shadow.evictions" t.evictions;
      count "shadow.range_reads" t.range_reads;
      count "shadow.range_read_bytes" t.range_read_bytes;
      count "shadow.range_runs" t.range_runs;
      count "shadow.range_writes" t.range_writes;
      count "shadow.range_write_bytes" t.range_write_bytes;
      hist "shadow.read_size" t.read_size;
      peak "shadow.footprint_peak_bytes" (footprint_peak_bytes t);
    ]
