type chunk = { c_offset : int; c_entries : int; c_bytes : int }

type t = {
  path : string;
  ic : in_channel;
  r_version : int;
  r_options_tag : string;
  r_chunk_bytes : int;
  r_stripped : bool;
  chunks : chunk array;
  total_entries : int;
  data_start : int; (* first byte after the header *)
  data_end : int; (* tables offset = first byte after the last chunk *)
  names : string array; (* function names; empty when no table embedded *)
  ctx_fn : int array; (* per-context function id; empty when absent *)
  ctx_parent : int array;
}

let read_bytes_at ic ~offset ~len =
  seek_in ic offset;
  let b = Bytes.create len in
  really_input ic b 0 len;
  b

(* Walk the chunk framing from [start] to diagnose a file whose trailer is
   missing or unusable: report the first chunk that is not wholly present.
   [limit] is the end of the region chunks may occupy. Index-checkpoint
   sections share the data chunks' framing and are walked the same way. *)
let diagnose_chunks ic ~start ~limit =
  let rec scan offset =
    if offset = limit then
      Frame.corrupt ~offset "trailer missing or unreadable (file truncated after last chunk?)"
    else if limit - offset < Frame.chunk_header_bytes then
      Frame.corrupt ~offset "truncated chunk header"
    else begin
      let header = read_bytes_at ic ~offset ~len:Frame.chunk_header_bytes in
      let magic = Frame.get_u32 header 0 in
      if magic <> Frame.chunk_magic && magic <> Frame.ckpt_magic then
        Frame.corrupt ~offset "bad chunk magic (trailer missing and data damaged)"
      else
        let payload = Frame.get_u32 header 8 in
        if limit - offset - Frame.chunk_header_bytes < payload then
          Frame.corrupt ~offset "truncated chunk payload"
        else scan (offset + Frame.chunk_header_bytes + payload)
    end
  in
  scan start

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
    let tag_len = Varint.read pre ~pos in
    if tag_len < 0 || tag_len > pre_len - !pos then
      Frame.corrupt ~offset:!pos "options fingerprint overruns header";
    let tag = Bytes.sub_string pre !pos tag_len in
    pos := !pos + tag_len;
    let chunk_bytes = Varint.read pre ~pos in
    (version, tag, chunk_bytes, !pos)
  with Varint.Truncated -> Frame.corrupt ~offset:!pos "truncated header"

type tail = {
  t_tables_offset : int;
  t_total_entries : int;
  t_names : string array;
  t_stripped : bool;
  t_ctx_fn : int array;
  t_ctx_parent : int array;
  t_chunks : chunk array;
}

(* Parse everything the trailer locates (tables + chunk index). The caller
   has already verified the trailer magic. *)
let parse_tail ic ~file_len ~data_start =
  let trailer =
    read_bytes_at ic ~offset:(file_len - Frame.trailer_bytes) ~len:Frame.trailer_bytes
  in
  let tables_offset = Frame.get_u64 trailer 0 in
  let index_offset = Frame.get_u64 trailer 8 in
  let total_entries = Frame.get_u64 trailer 16 in
  if
    tables_offset < data_start || index_offset < tables_offset
    || index_offset > file_len - Frame.trailer_bytes
  then Frame.corrupt ~offset:(file_len - Frame.trailer_bytes) "trailer offsets out of range";
  (* tables + index are small; parse them from one contiguous read *)
  let meta_len = file_len - Frame.trailer_bytes - tables_offset in
  let meta = read_bytes_at ic ~offset:tables_offset ~len:meta_len in
  let pos = ref 0 in
  try
    let symbol_count = Varint.read meta ~pos in
    let stripped = Bytes.get meta !pos = '\001' in
    incr pos;
    let names =
      Array.init symbol_count (fun _ ->
          let len = Varint.read meta ~pos in
          if len < 0 || len > meta_len - !pos then
            Frame.corrupt ~offset:tables_offset "symbol name overruns table";
          let name = Bytes.sub_string meta !pos len in
          pos := !pos + len;
          name)
    in
    let context_count = Varint.read meta ~pos in
    let ctx_fn = Array.make context_count (-1) in
    let ctx_parent = Array.make context_count (-1) in
    for ctx = 1 to context_count - 1 do
      ctx_parent.(ctx) <- Varint.read meta ~pos;
      ctx_fn.(ctx) <- Varint.read meta ~pos
    done;
    pos := index_offset - tables_offset;
    let chunk_count = Varint.read meta ~pos in
    let chunks =
      Array.init chunk_count (fun _ ->
          let c_offset = Varint.read meta ~pos in
          let c_entries = Varint.read meta ~pos in
          let c_bytes = Varint.read meta ~pos in
          if c_offset < data_start || c_offset + Frame.chunk_header_bytes + c_bytes > tables_offset
          then Frame.corrupt ~offset:c_offset "chunk index entry out of range";
          { c_offset; c_entries; c_bytes })
    in
    {
      t_tables_offset = tables_offset;
      t_total_entries = total_entries;
      t_names = names;
      t_stripped = stripped;
      t_ctx_fn = ctx_fn;
      t_ctx_parent = ctx_parent;
      t_chunks = chunks;
    }
  with Varint.Truncated ->
    Frame.corrupt ~offset:tables_offset "truncated symbol/context tables or chunk index"

let has_trailer ic ~file_len ~data_start =
  file_len - data_start >= Frame.trailer_bytes
  &&
  let trailer =
    read_bytes_at ic ~offset:(file_len - Frame.trailer_bytes) ~len:Frame.trailer_bytes
  in
  Bytes.sub_string trailer 24 8 = Frame.trailer_magic

let open_file path =
  let ic = open_in_bin path in
  match
    let file_len = in_channel_length ic in
    let version, tag, chunk_bytes, data_start = parse_header ic ~file_len in
    if not (has_trailer ic ~file_len ~data_start) then
      (* no trailer at all: scan the raw tail so the first chunk the cut
         actually damaged is the one named *)
      diagnose_chunks ic ~start:data_start ~limit:(max data_start file_len);
    let tl = parse_tail ic ~file_len ~data_start in
    {
      path;
      ic;
      r_version = version;
      r_options_tag = tag;
      r_chunk_bytes = chunk_bytes;
      r_stripped = tl.t_stripped;
      chunks = tl.t_chunks;
      total_entries = tl.t_total_entries;
      data_start;
      data_end = tl.t_tables_offset;
      names = tl.t_names;
      ctx_fn = tl.t_ctx_fn;
      ctx_parent = tl.t_ctx_parent;
    }
  with
  | t -> t
  | exception e ->
    close_in_noerr ic;
    raise e

let is_tracefile path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = String.length Frame.magic in
      in_channel_length ic >= len
      &&
      let b = Bytes.create len in
      really_input ic b 0 len;
      Bytes.to_string b = Frame.magic)

let close t = close_in_noerr t.ic
let version t = t.r_version
let options_tag t = t.r_options_tag
let chunk_bytes t = t.r_chunk_bytes
let entry_count t = t.total_entries
let chunk_count t = Array.length t.chunks
let chunk_offsets t = Array.to_list (Array.map (fun c -> c.c_offset) t.chunks)
let symbol_count t = Array.length t.names
let context_count t = Array.length t.ctx_fn
let has_names t = Array.length t.names > 0 && Array.length t.ctx_fn > 0
let raw_tables t = (t.names, t.r_stripped, t.ctx_parent, t.ctx_fn)

let fn_name t ctx =
  if ctx = Dbi.Context.root then "<root>"
  else if ctx > 0 && ctx < Array.length t.ctx_fn then begin
    let fn = t.ctx_fn.(ctx) in
    if fn >= 0 && fn < Array.length t.names then t.names.(fn) else "ctx:" ^ string_of_int ctx
  end
  else "ctx:" ^ string_of_int ctx

(* Read one chunk's payload through [ic], verifying framing and CRC. *)
let read_chunk ic (c : chunk) =
  let header = read_bytes_at ic ~offset:c.c_offset ~len:Frame.chunk_header_bytes in
  if Frame.get_u32 header 0 <> Frame.chunk_magic then
    Frame.corrupt ~offset:c.c_offset "bad chunk magic";
  let entries = Frame.get_u32 header 4 in
  let payload_len = Frame.get_u32 header 8 in
  let crc = Frame.get_u32 header 12 in
  if entries <> c.c_entries || payload_len <> c.c_bytes then
    Frame.corrupt ~offset:c.c_offset "chunk header disagrees with index";
  let payload = Bytes.create payload_len in
  really_input ic payload 0 payload_len;
  let actual = Crc32.bytes payload ~pos:0 ~len:payload_len in
  if actual <> crc then
    Frame.corrupt ~offset:c.c_offset
      (Printf.sprintf "chunk CRC mismatch (stored 0x%08x, computed 0x%08x)" crc actual);
  payload

let decode_payload (c : chunk) payload f =
  let d = Frame.delta () in
  let pos = ref 0 in
  for _ = 1 to c.c_entries do
    (* only decoding failures are the chunk's fault; the consumer's own
       exceptions pass through unchanged *)
    let e =
      try Frame.decode_entry d payload ~pos
      with Varint.Truncated | Failure _ ->
        Frame.corrupt ~offset:c.c_offset "undecodable chunk payload"
    in
    f e
  done;
  if !pos <> Bytes.length payload then
    Frame.corrupt ~offset:c.c_offset "chunk payload has trailing garbage"

(* ------------------------------------------------------------------ *)
(* Salvage                                                             *)
(* ------------------------------------------------------------------ *)

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

(* After damage at [start - 1], count later data chunks that still frame
   and CRC clean. Salvage refuses to resume past a gap (delta state and
   entry accounting would be guesses), so these are reported as dropped
   rather than silently resurrected. *)
let count_resync ic ~start ~limit =
  let count = ref 0 in
  let offset = ref start in
  while !offset + Frame.chunk_header_bytes <= limit do
    let header = read_bytes_at ic ~offset:!offset ~len:Frame.chunk_header_bytes in
    let advanced =
      Frame.get_u32 header 0 = Frame.chunk_magic
      &&
      let payload_len = Frame.get_u32 header 8 in
      let crc = Frame.get_u32 header 12 in
      payload_len <= limit - !offset - Frame.chunk_header_bytes
      &&
      let payload =
        read_bytes_at ic ~offset:(!offset + Frame.chunk_header_bytes) ~len:payload_len
      in
      Crc32.bytes payload ~pos:0 ~len:payload_len = crc
      && begin
        incr count;
        offset := !offset + Frame.chunk_header_bytes + payload_len;
        true
      end
    in
    if not advanced then incr offset
  done;
  !count

let open_salvage path =
  let ic = open_in_bin path in
  match
    let file_len = in_channel_length ic in
    (* a damaged header is unsalvageable: without the chunk-size framing
       start there is no prefix to trust — [Frame.Corrupt] escapes with
       the offending offset, which is the structured-error half of the
       salvage contract *)
    let version, tag, chunk_bytes, data_start = parse_header ic ~file_len in
    let tail =
      if not (has_trailer ic ~file_len ~data_start) then None
      else
        match parse_tail ic ~file_len ~data_start with
        | tl -> Some tl
        | exception Frame.Corrupt _ -> None
    in
    let limit = match tail with Some tl -> tl.t_tables_offset | None -> file_len in
    (* forward walk keeping every section that is wholly present, CRC-clean
       and (for data chunks) fully decodable; stop at the first damage —
       salvage recovers a strict prefix, never entries past a gap *)
    let recovered = ref [] in
    let entries = ref 0 in
    let bad = ref None in
    let rec walk offset =
      if offset >= limit then ()
      else if limit - offset < Frame.chunk_header_bytes then bad := Some offset
      else begin
        let header = read_bytes_at ic ~offset ~len:Frame.chunk_header_bytes in
        let magic = Frame.get_u32 header 0 in
        let count = Frame.get_u32 header 4 in
        let payload_len = Frame.get_u32 header 8 in
        let crc = Frame.get_u32 header 12 in
        if magic <> Frame.chunk_magic && magic <> Frame.ckpt_magic then bad := Some offset
        else if limit - offset - Frame.chunk_header_bytes < payload_len then bad := Some offset
        else begin
          let payload =
            read_bytes_at ic ~offset:(offset + Frame.chunk_header_bytes) ~len:payload_len
          in
          if Crc32.bytes payload ~pos:0 ~len:payload_len <> crc then bad := Some offset
          else if magic = Frame.ckpt_magic then
            (* intact checkpoint: nothing to recover from it, walk on *)
            walk (offset + Frame.chunk_header_bytes + payload_len)
          else begin
            let c = { c_offset = offset; c_entries = count; c_bytes = payload_len } in
            match decode_payload c payload (fun _ -> ()) with
            | () ->
              recovered := c :: !recovered;
              entries := !entries + count;
              walk (offset + Frame.chunk_header_bytes + payload_len)
            | exception Frame.Corrupt _ -> bad := Some offset
          end
        end
      end
    in
    walk data_start;
    let recovered = Array.of_list (List.rev !recovered) in
    let dropped =
      match tail with
      | Some tl -> max 0 (Array.length tl.t_chunks - Array.length recovered)
      | None -> (
        match !bad with
        | None -> 0
        | Some b -> 1 + count_resync ic ~start:(b + 1) ~limit)
    in
    let report =
      {
        recovered_entries = !entries;
        recovered_chunks = Array.length recovered;
        dropped_chunks = dropped;
        first_bad_offset = !bad;
        tail_valid = tail <> None;
      }
    in
    let data_end =
      if Array.length recovered = 0 then data_start
      else
        let c = recovered.(Array.length recovered - 1) in
        c.c_offset + Frame.chunk_header_bytes + c.c_bytes
    in
    let names, stripped, ctx_fn, ctx_parent =
      match tail with
      | Some tl -> (tl.t_names, tl.t_stripped, tl.t_ctx_fn, tl.t_ctx_parent)
      | None -> ([||], false, [||], [||])
    in
    ( {
        path;
        ic;
        r_version = version;
        r_options_tag = tag;
        r_chunk_bytes = chunk_bytes;
        r_stripped = stripped;
        chunks = recovered;
        total_entries = !entries;
        data_start;
        data_end;
        names;
        ctx_fn;
        ctx_parent;
      },
      report )
  with
  | t -> t
  | exception e ->
    close_in_noerr ic;
    raise e

let iter t f =
  Array.iter (fun c -> decode_payload c (read_chunk t.ic c) f) t.chunks

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

let to_log t =
  let log = Sigil.Event_log.create () in
  iter t (Sigil.Event_log.add log);
  log

let decode_array c payload =
  let out = ref [] in
  decode_payload c payload (fun e -> out := e :: !out);
  let arr = Array.of_list (List.rev !out) in
  arr

let map_chunks ?pool t f =
  let work i =
    let c = t.chunks.(i) in
    (* own descriptor per task: in_channel positions are not shareable
       across domains *)
    let ic = open_in_bin t.path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> f i (decode_array c (read_chunk ic c)))
  in
  let indices = List.init (Array.length t.chunks) Fun.id in
  match pool with
  | Some p -> Pool.map p work indices
  | None ->
    List.map (fun i -> f i (decode_array t.chunks.(i) (read_chunk t.ic t.chunks.(i)))) indices

let validate ?pool t =
  let counts = map_chunks ?pool t (fun i arr -> (i, Array.length arr)) in
  let total =
    List.fold_left
      (fun acc (i, n) ->
        if n <> t.chunks.(i).c_entries then
          Frame.corrupt ~offset:t.chunks.(i).c_offset "decoded entry count disagrees with index";
        acc + n)
      0 counts
  in
  if total <> t.total_entries then
    Frame.corrupt ~offset:t.data_end "total entry count disagrees with trailer"
