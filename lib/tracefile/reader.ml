type chunk = { c_offset : int; c_entries : int; c_bytes : int }

(* Where a reader reads sections: the 16-byte header scratch and one
   payload buffer, grown to the longest section read or indexed. It is
   longer than most, so every decode is bounded by its section's length. *)
type scratch = { header : bytes; mutable payload : bytes }

let scratch () = { header = Bytes.create Frame.chunk_header_bytes; payload = Bytes.empty }

type t = {
  ic : in_channel;
  sc : scratch;
  r_kind : Frame.kind;
  r_options_tag : string;
  r_chunk_bytes : int;
  chunks : chunk array;
  total_entries : int;
  data_end : int; (* first byte past the last chunk this reader may read *)
  names : Dbi.Names.t; (* the embedded tables; empty when the file carries none *)
}

let read_bytes_at ic ~offset ~len =
  seek_in ic offset;
  let b = Bytes.create len in
  really_input ic b 0 len;
  b

(* The only place a section header is parsed: the 16-byte framing at
   [offset] (a data section of any kind or an index checkpoint), its
   payload bounded by [limit] and checked against the stored CRC-32.
   Returns the magic, the header's count field and the payload length;
   the payload is the first that many bytes of [sc.payload]. *)
let section_at sc ic ~offset ~limit =
  if limit - offset < Frame.chunk_header_bytes then Frame.corrupt ~offset "truncated chunk header";
  seek_in ic offset;
  really_input ic sc.header 0 Frame.chunk_header_bytes;
  let magic = Frame.get_u32 sc.header 0 in
  if magic <> Frame.ckpt_magic && Frame.kind_of_magic magic = None then
    Frame.corrupt ~offset "bad chunk magic";
  let len = Frame.get_u32 sc.header 8 in
  if limit - offset - Frame.chunk_header_bytes < len then
    Frame.corrupt ~offset "truncated chunk payload";
  if Bytes.length sc.payload < len then sc.payload <- Bytes.create len;
  really_input ic sc.payload 0 len;
  let crc = Frame.get_u32 sc.header 12 in
  let actual = Crc32.bytes sc.payload ~pos:0 ~len in
  if actual <> crc then
    Frame.corrupt ~offset
      (Printf.sprintf "chunk CRC mismatch (stored 0x%08x, computed 0x%08x)" crc actual);
  (magic, Frame.get_u32 sc.header 4, len)

(* Decodes the [count] records of a section payload, the first [len]
   bytes of [payload], whose first byte is at file offset [base],
   applying [f offset record] to each. Only decoding failures are the
   section's fault; [f]'s own exceptions pass through unchanged. *)
let decode_section decode f ~base payload ~len count =
  let pos = ref 0 in
  for _ = 1 to count do
    let offset = base + !pos in
    match decode payload ~len ~pos with
    | r -> f offset r
    | exception Varint.Truncated -> Frame.corrupt ~offset "truncated record"
    | exception Failure reason -> Frame.corrupt ~offset reason
  done;
  if !pos <> len then
    Frame.corrupt ~offset:(base + !pos) "section payload has trailing garbage"

(* Forward walk over the sections in [start, limit), keeping every data
   section that is wholly present, CRC-clean, of the first one's kind and,
   for event chunks, fully decodable, and skipping intact checkpoints
   (each counts the data chunks before it). Stops at the first damage,
   returned with its offset and reason: the recovered sections are a
   strict prefix, never records past a gap. The kind is the first data
   section's ([Events] when there is none). *)
let walk sc ic ~start ~limit =
  let d = Frame.delta () in
  let kind = ref None in
  let rec go offset acc entries =
    if offset >= limit then (List.rev acc, entries, None)
    else
      match
        let magic, count, len = section_at sc ic ~offset ~limit in
        let c = { c_offset = offset; c_entries = count; c_bytes = len } in
        let k = Frame.kind_of_magic magic in
        (match (k, !kind) with
        | Some k, Some first when k <> first -> Frame.corrupt ~offset "section kind changes mid-file"
        | Some _, None -> kind := k
        | None, _ when count <> List.length acc ->
          Frame.corrupt ~offset "checkpoint disagrees with the chunks before it"
        | _ -> ());
        if k = Some Frame.Events then
          decode_section (Frame.decode_entry d) (fun _ _ -> ())
            ~base:(offset + Frame.chunk_header_bytes) sc.payload ~len count;
        (k <> None, c)
      with
      | exception Frame.Corrupt { offset; reason } -> (List.rev acc, entries, Some (offset, reason))
      | is_data, c ->
        let next = offset + Frame.chunk_header_bytes + c.c_bytes in
        if is_data then go next (c :: acc) (entries + c.c_entries) else go next acc entries
  in
  let chunks, entries, bad = go start [] 0 in
  (chunks, entries, bad, Option.value !kind ~default:Frame.Events)

(* After damage at [start - 1], count later data chunks that still frame
   and CRC clean. Salvage refuses to resume past a gap (delta state and
   entry accounting would be guesses), so these are reported as dropped
   rather than silently resurrected. *)
let count_resync sc ic ~start ~limit =
  let rec go offset n =
    if limit - offset < Frame.chunk_header_bytes then n
    else
      match section_at sc ic ~offset ~limit with
      | exception Frame.Corrupt _ -> go (offset + 1) n
      | magic, _, len ->
        let next = offset + Frame.chunk_header_bytes + len in
        go next (if magic <> Frame.ckpt_magic then n + 1 else n)
  in
  go start 0

let parse_header ic ~file_len =
  let magic_len = String.length Frame.magic in
  if file_len < magic_len + 1 then Frame.corrupt ~offset:0 "not a sigil tracefile (too short)";
  (* header is tiny; over-read a small prefix and parse varints from it *)
  let pre_len = min file_len 4096 in
  let pre = read_bytes_at ic ~offset:0 ~len:pre_len in
  if Bytes.sub_string pre 0 magic_len <> Frame.magic then
    Frame.corrupt ~offset:0 "not a sigil tracefile (bad magic)";
  let version = Char.code (Bytes.get pre magic_len) in
  if version <> Frame.version then
    Frame.corrupt ~offset:magic_len (Printf.sprintf "unsupported version %d" version);
  let pos = ref (magic_len + 1) in
  try
    let tag_len = Varint.read pre ~len:pre_len ~pos in
    if tag_len < 0 || tag_len > pre_len - !pos then
      Frame.corrupt ~offset:!pos "options fingerprint overruns header";
    let tag = Bytes.sub_string pre !pos tag_len in
    pos := !pos + tag_len;
    let chunk_bytes = Varint.read pre ~len:pre_len ~pos in
    (tag, chunk_bytes, !pos)
  with Varint.Truncated -> Frame.corrupt ~offset:!pos "truncated header"

type tail = {
  t_tables_offset : int;
  t_total_entries : int;
  t_names : Dbi.Names.t;
  t_chunks : chunk array;
}

(* Parse everything the trailer locates (tables + chunk index). The caller
   has already verified the trailer magic. Every context must name an
   older parent (so the tree has no cycle) and, when names are present, a
   known function. The index must tile the data region in order, end
   where the trailer starts and account for the trailer's entry total, so
   a damaged index cannot shorten the trace. *)
let parse_tail ic ~file_len ~data_start =
  let trailer_offset = file_len - Frame.trailer_bytes in
  let trailer = read_bytes_at ic ~offset:trailer_offset ~len:Frame.trailer_bytes in
  let tables_offset = Frame.get_u64 trailer 0 in
  let index_offset = Frame.get_u64 trailer 8 in
  let total_entries = Frame.get_u64 trailer 16 in
  if tables_offset < data_start || index_offset < tables_offset || index_offset > trailer_offset
  then Frame.corrupt ~offset:trailer_offset "trailer offsets out of range";
  (* tables + index are small; parse them from one contiguous read *)
  let meta_len = trailer_offset - tables_offset in
  let meta = read_bytes_at ic ~offset:tables_offset ~len:meta_len in
  let pos = ref 0 in
  (* every counted item takes at least one byte, so a count past the
     bytes left is damage, not a table to allocate *)
  let count () =
    let n = Varint.read meta ~len:meta_len ~pos in
    if n < 0 || n > meta_len - !pos then
      Frame.corrupt ~offset:tables_offset "table count out of range";
    n
  in
  try
    let symbol_count = count () in
    if !pos >= meta_len then raise Varint.Truncated;
    let stripped = Bytes.get meta !pos = '\001' in
    incr pos;
    let symbols =
      Array.init symbol_count (fun _ ->
          let len = Varint.read meta ~len:meta_len ~pos in
          if len < 0 || len > meta_len - !pos then
            Frame.corrupt ~offset:tables_offset "symbol name overruns table";
          let name = Bytes.sub_string meta !pos len in
          pos := !pos + len;
          name)
    in
    let context_count = count () in
    let fn = Array.make context_count (-1) in
    let parent = Array.make context_count (-1) in
    for ctx = 1 to context_count - 1 do
      let p = Varint.read meta ~len:meta_len ~pos in
      let f = Varint.read meta ~len:meta_len ~pos in
      if p < 0 || p >= ctx || (symbol_count > 0 && (f < 0 || f >= symbol_count)) then
        Frame.corrupt ~offset:tables_offset
          (Printf.sprintf "context %d has parent %d and function %d" ctx p f);
      parent.(ctx) <- p;
      fn.(ctx) <- f
    done;
    pos := index_offset - tables_offset;
    let chunk_count = count () in
    let bad_index () = Frame.corrupt ~offset:index_offset "chunk index disagrees with trailer" in
    let next_free = ref data_start and entries = ref 0 in
    let chunks =
      Array.init chunk_count (fun _ ->
          let c_offset = Varint.read meta ~len:meta_len ~pos in
          let c_entries = Varint.read meta ~len:meta_len ~pos in
          let c_bytes = Varint.read meta ~len:meta_len ~pos in
          if
            c_offset < !next_free || c_entries < 0 || c_bytes < 0
            || c_bytes > tables_offset - c_offset - Frame.chunk_header_bytes
          then bad_index ();
          next_free := c_offset + Frame.chunk_header_bytes + c_bytes;
          entries := !entries + c_entries;
          { c_offset; c_entries; c_bytes })
    in
    if !pos <> meta_len || !entries <> total_entries then bad_index ();
    {
      t_tables_offset = tables_offset;
      t_total_entries = total_entries;
      t_names = { Dbi.Names.symbols; stripped; parent; fn };
      t_chunks = chunks;
    }
  with Varint.Truncated ->
    Frame.corrupt ~offset:tables_offset "truncated symbol/context tables or chunk index"

(* The kind of an indexed file: its first section's, read from that
   section's magic ([Events] when the file has none). *)
let kind_at ic chunks =
  if chunks = [||] then Frame.Events
  else
    let offset = chunks.(0).c_offset in
    match Frame.kind_of_magic (Frame.get_u32 (read_bytes_at ic ~offset ~len:4) 0) with
    | Some k -> k
    | None -> Frame.corrupt ~offset "bad chunk magic"

let has_trailer ic ~file_len ~data_start =
  file_len - data_start >= Frame.trailer_bytes
  &&
  let trailer =
    read_bytes_at ic ~offset:(file_len - Frame.trailer_bytes) ~len:Frame.trailer_bytes
  in
  Bytes.sub_string trailer 24 8 = Frame.trailer_magic

type salvage_report = {
  recovered_entries : int;
  recovered_chunks : int;
  dropped_chunks : int;
  first_bad_offset : int option;
  tail_valid : bool;
}

let pp_salvage_report ppf r =
  Format.fprintf ppf
    "recovered %d entries in %d chunks, dropped %d chunks%s (trailer/index %s)" r.recovered_entries
    r.recovered_chunks r.dropped_chunks
    (match r.first_bad_offset with
    | None -> ""
    | Some o -> Printf.sprintf ", first damage at offset %d" o)
    (if r.tail_valid then "intact" else "lost")

(* The open path of both entry points. [~strict] is salvage that allows no
   damage: an intact trailer is trusted as is (nothing else is read), and
   whatever the walk would have dropped raises instead. *)
let open_trace ~strict path =
  let ic = open_in_bin path in
  let sc = scratch () in
  match
    let file_len = in_channel_length ic in
    (* a damaged header is unsalvageable: without the chunk-size framing
       start there is no prefix to trust, so [Frame.Corrupt] escapes with
       the offending offset in both modes *)
    let tag, chunk_bytes, data_start = parse_header ic ~file_len in
    let tail =
      if not (has_trailer ic ~file_len ~data_start) then None
      else
        match parse_tail ic ~file_len ~data_start with
        | tl -> Some tl
        | exception Frame.Corrupt _ when not strict -> None
    in
    let chunks, entries, report, kind =
      match tail with
      | Some tl when strict ->
        let n = Array.length tl.t_chunks in
        let report =
          {
            recovered_entries = tl.t_total_entries;
            recovered_chunks = n;
            dropped_chunks = 0;
            first_bad_offset = None;
            tail_valid = true;
          }
        in
        (tl.t_chunks, tl.t_total_entries, report, kind_at ic tl.t_chunks)
      | _ ->
        let limit = match tail with Some tl -> tl.t_tables_offset | None -> file_len in
        let recovered, entries, bad, kind = walk sc ic ~start:data_start ~limit in
        if strict then begin
          match bad with
          | Some (offset, reason) -> Frame.corrupt ~offset reason
          | None ->
            Frame.corrupt ~offset:limit
              "trailer missing or unreadable (file truncated after last chunk?)"
        end;
        let recovered = Array.of_list recovered in
        let dropped =
          match (tail, bad) with
          | Some tl, _ -> max 0 (Array.length tl.t_chunks - Array.length recovered)
          | None, None -> 0
          | None, Some (b, _) -> 1 + count_resync sc ic ~start:(b + 1) ~limit
        in
        let report =
          {
            recovered_entries = entries;
            recovered_chunks = Array.length recovered;
            dropped_chunks = dropped;
            first_bad_offset = Option.map fst bad;
            tail_valid = tail <> None;
          }
        in
        (recovered, entries, report, kind)
    in
    let data_end =
      match chunks with
      | [||] -> data_start
      | _ ->
        let c = chunks.(Array.length chunks - 1) in
        c.c_offset + Frame.chunk_header_bytes + c.c_bytes
    in
    (* reads of indexed chunks never grow the buffer: size it now *)
    let longest = Array.fold_left (fun m c -> max m c.c_bytes) 0 chunks in
    if Bytes.length sc.payload < longest then sc.payload <- Bytes.create longest;
    let names = match tail with Some tl -> tl.t_names | None -> Dbi.Names.empty in
    ( {
        ic;
        sc;
        r_kind = kind;
        r_options_tag = tag;
        r_chunk_bytes = chunk_bytes;
        chunks;
        total_entries = entries;
        data_end;
        names;
      },
      report )
  with
  | t -> t
  | exception e ->
    close_in_noerr ic;
    raise e

let open_file path = fst (open_trace ~strict:true path)
let open_salvage path = open_trace ~strict:false path

let close t = close_in_noerr t.ic
let kind t = t.r_kind
let data_end t = t.data_end
let version _ = Frame.version
let options_tag t = t.r_options_tag
let chunk_bytes t = t.r_chunk_bytes
let entry_count t = t.total_entries
let chunk_count t = Array.length t.chunks
let chunk_offsets t = Array.to_list (Array.map (fun c -> c.c_offset) t.chunks)
let names t = t.names

(* Reads one indexed chunk into [t.sc.payload] and returns its length:
   the section at its offset, which must be the data chunk the index
   describes. *)
let read_chunk t (c : chunk) =
  let magic, count, len = section_at t.sc t.ic ~offset:c.c_offset ~limit:t.data_end in
  if magic <> Frame.section_magic t.r_kind || count <> c.c_entries || len <> c.c_bytes then
    Frame.corrupt ~offset:c.c_offset "chunk header disagrees with index";
  len

(* Raises at the first chunk unless [t] holds [kind]. *)
let expect t kind =
  if t.r_kind <> kind then
    Frame.corrupt
      ~offset:(if t.chunks = [||] then t.data_end else t.chunks.(0).c_offset)
      (Printf.sprintf "%s expected, found %s" (Frame.kind_name kind) (Frame.kind_name t.r_kind))

let records t kind decode f =
  expect t kind;
  Array.iter
    (fun c ->
      let len = read_chunk t c in
      decode_section decode f ~base:(c.c_offset + Frame.chunk_header_bytes) t.sc.payload ~len
        c.c_entries)
    t.chunks

(* one codec state (and its scratch entries) serves every chunk of a
   pass: decoding a chunk's first entry resets it *)
let iter t f =
  let d = Frame.delta () in
  records t Frame.Events (Frame.decode_entry d) (fun _ e -> f e)
