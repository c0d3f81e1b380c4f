exception Corrupt of { offset : int; reason : string }

let () =
  Printexc.register_printer (function
    | Corrupt { offset; reason } ->
      Some (Printf.sprintf "Tracefile.Frame.Corrupt at offset %d: %s" offset reason)
    | _ -> None)

let corrupt ~offset reason = raise (Corrupt { offset; reason })

let magic = "sigiltf1"
let trailer_magic = "sigilend"
let version = 1
let chunk_magic = 0x48434753 (* "SGCH" read as LE u32 *)
let ckpt_magic = 0x504b4753 (* "SGKP" read as LE u32 *)
let recording_magic = 0x43524753 (* "SGRC" *)
let profile_magic = 0x46504753 (* "SGPF" *)
let chunk_header_bytes = 16
let trailer_bytes = 32
let default_chunk_bytes = 64 * 1024
let default_checkpoint_every = 16

type kind = Events | Recording | Profile

let section_magic = function
  | Events -> chunk_magic
  | Recording -> recording_magic
  | Profile -> profile_magic

let kind_of_magic m =
  List.find_opt (fun k -> section_magic k = m) [ Events; Recording; Profile ]

let kind_name = function
  | Events -> "event trace"
  | Recording -> "recording"
  | Profile -> "profile"

let add_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let add_u64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_u32 b off =
  let byte i = Char.code (Bytes.get b (off + i)) in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

let get_u64 b off =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
  done;
  !v

(* ------------------------------------------------------------------ *)
(* Entry codec                                                         *)
(* ------------------------------------------------------------------ *)

let tag_call = 1
let tag_comp = 2
let tag_xfer = 3
let tag_ret = 4

(* Flag bits packed into the tag byte. The stream is highly regular —
   Comp/Ret (and an Xfer's destination) almost always name the same
   (ctx, call) as the previous entry, fp op counts are usually zero and
   most transfers are all-unique — so the common cases cost zero payload
   bytes beyond the tag itself. *)
let flag_samepos = 0x08 (* ctx/call equal the running pair: no pos varints *)
let flag_omit = 0x10 (* Comp: fp_ops = 0; Xfer: unique_bytes = bytes *)
let flag_samesrc = 0x20 (* Xfer: producer equals the previous transfer's *)
let flag_samenum = 0x40 (* Comp: int_ops, Xfer: bytes repeat the previous one *)
let flag_stackpos = 0x80 (* ctx/call equal the tracked open frame (stack top) *)

type delta = {
  mutable d_ctx : int;
  mutable d_call : int;
  mutable s_ctx : int; (* previous transfer's producer: one producer *)
  mutable s_call : int; (* typically feeds many consecutive consumers *)
  mutable n_ops : int; (* previous computation's int op count *)
  mutable n_bytes : int; (* previous transfer's byte count *)
  (* open frames seen since the chunk began (Call pushes, Ret pops), in
     slots [0, depth): after a Ret, the resuming parent's fragment
     matches the top. The arrays grow by doubling and outlive [reset]. *)
  mutable st_ctx : int array;
  mutable st_call : int array;
  mutable depth : int;
  scratch : Sigil.Event_log.scratch; (* the entries [decode_entry] lends *)
}

let initial_stack = 64

let delta () =
  {
    d_ctx = 0;
    d_call = 0;
    s_ctx = 0;
    s_call = 0;
    n_ops = 0;
    n_bytes = 0;
    st_ctx = Array.make initial_stack 0;
    st_call = Array.make initial_stack 0;
    depth = 0;
    scratch = Sigil.Event_log.scratch ();
  }

let reset d =
  d.d_ctx <- 0;
  d.d_call <- 0;
  d.s_ctx <- 0;
  d.s_call <- 0;
  d.n_ops <- 0;
  d.n_bytes <- 0;
  d.depth <- 0

let push d ctx call =
  if d.depth = Array.length d.st_ctx then begin
    let grow a = Array.init (2 * d.depth) (fun i -> if i < d.depth then a.(i) else 0) in
    d.st_ctx <- grow d.st_ctx;
    d.st_call <- grow d.st_call
  end;
  d.st_ctx.(d.depth) <- ctx;
  d.st_call.(d.depth) <- call;
  d.depth <- d.depth + 1

let pop d = if d.depth > 0 then d.depth <- d.depth - 1

(* The position flag of an entry at (ctx, call): [flag_samepos],
   [flag_stackpos] or 0 — at most one is set, either elides the
   position varints. *)
let classify d ctx call =
  if ctx = d.d_ctx && call = d.d_call then flag_samepos
  else if d.depth > 0 && d.st_ctx.(d.depth - 1) = ctx && d.st_call.(d.depth - 1) = call then
    flag_stackpos
  else 0

let[@inline] add_tag buf tag = Buffer.add_char buf (Char.unsafe_chr tag)

(* Writes the position varints unless [flags] elide them, then makes
   (ctx, call) the running pair. *)
let write_pos d buf flags ctx call =
  if flags land (flag_samepos lor flag_stackpos) = 0 then begin
    Varint.write_signed buf (ctx - d.d_ctx);
    Varint.write_signed buf (call - d.d_call)
  end;
  d.d_ctx <- ctx;
  d.d_call <- call

let encode_entry d buf (e : Sigil.Event_log.entry) =
  match e with
  | Call { ctx; call } ->
    let pos = classify d ctx call in
    add_tag buf (tag_call lor pos);
    write_pos d buf pos ctx call;
    push d ctx call
  | Comp { ctx; call; int_ops; fp_ops } ->
    let pos = classify d ctx call in
    let sn = int_ops = d.n_ops in
    add_tag buf
      (tag_comp lor pos
      lor (if fp_ops = 0 then flag_omit else 0)
      lor if sn then flag_samenum else 0);
    write_pos d buf pos ctx call;
    if not sn then Varint.write buf int_ops;
    d.n_ops <- int_ops;
    if fp_ops <> 0 then Varint.write buf fp_ops
  | Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes; unique_bytes } ->
    (* destination is the open call — rebase the running pair to it; the
       producer repeats the previous transfer's (flag) or is encoded
       relative to the destination (producers sit near their consumers) *)
    let pos = classify d dst_ctx dst_call in
    let ss = src_ctx = d.s_ctx && src_call = d.s_call in
    let sn = bytes = d.n_bytes in
    add_tag buf
      (tag_xfer lor pos
      lor (if unique_bytes = bytes then flag_omit else 0)
      lor (if ss then flag_samesrc else 0)
      lor if sn then flag_samenum else 0);
    write_pos d buf pos dst_ctx dst_call;
    if not ss then begin
      Varint.write_signed buf (src_ctx - dst_ctx);
      Varint.write_signed buf (src_call - dst_call)
    end;
    d.s_ctx <- src_ctx;
    d.s_call <- src_call;
    if not sn then Varint.write buf bytes;
    d.n_bytes <- bytes;
    if unique_bytes <> bytes then Varint.write buf unique_bytes
  | Ret { ctx; call } ->
    let pos = classify d ctx call in
    add_tag buf (tag_ret lor pos);
    write_pos d buf pos ctx call;
    pop d

(* Makes the entry's position the running pair. *)
let read_pos d byte b ~len ~pos =
  if byte land flag_samepos <> 0 then ()
  else if byte land flag_stackpos <> 0 then begin
    if d.depth = 0 then failwith "Tracefile: stackpos flag with no open frame";
    d.d_ctx <- d.st_ctx.(d.depth - 1);
    d.d_call <- d.st_call.(d.depth - 1)
  end
  else begin
    d.d_ctx <- d.d_ctx + Varint.read_signed b ~len ~pos;
    d.d_call <- d.d_call + Varint.read_signed b ~len ~pos
  end

let decode_entry d b ~len ~pos : Sigil.Event_log.entry =
  if !pos = 0 then reset d;
  if !pos >= len then raise Varint.Truncated;
  let byte = Char.code (Bytes.get b !pos) in
  incr pos;
  let base = byte land 0x07 in
  let omit = byte land flag_omit <> 0 in
  let samesrc = byte land flag_samesrc <> 0 in
  let samenum = byte land flag_samenum <> 0 in
  if samesrc && base <> tag_xfer then
    failwith (Printf.sprintf "Tracefile: unknown entry tag 0x%02x" byte);
  if samenum && base <> tag_xfer && base <> tag_comp then
    failwith (Printf.sprintf "Tracefile: unknown entry tag 0x%02x" byte);
  if base = tag_call then begin
    read_pos d byte b ~len ~pos;
    push d d.d_ctx d.d_call;
    Sigil.Event_log.set_call d.scratch ~ctx:d.d_ctx ~call:d.d_call
  end
  else if base = tag_comp then begin
    read_pos d byte b ~len ~pos;
    let int_ops = if samenum then d.n_ops else Varint.read b ~len ~pos in
    d.n_ops <- int_ops;
    let fp_ops = if omit then 0 else Varint.read b ~len ~pos in
    Sigil.Event_log.set_comp d.scratch ~ctx:d.d_ctx ~call:d.d_call ~int_ops ~fp_ops
  end
  else if base = tag_xfer then begin
    read_pos d byte b ~len ~pos;
    if not samesrc then begin
      d.s_ctx <- d.d_ctx + Varint.read_signed b ~len ~pos;
      d.s_call <- d.d_call + Varint.read_signed b ~len ~pos
    end;
    let bytes = if samenum then d.n_bytes else Varint.read b ~len ~pos in
    d.n_bytes <- bytes;
    let unique_bytes = if omit then bytes else Varint.read b ~len ~pos in
    Sigil.Event_log.set_xfer d.scratch ~src_ctx:d.s_ctx ~src_call:d.s_call ~dst_ctx:d.d_ctx
      ~dst_call:d.d_call ~bytes ~unique_bytes
  end
  else if base = tag_ret then begin
    read_pos d byte b ~len ~pos;
    pop d;
    Sigil.Event_log.set_ret d.scratch ~ctx:d.d_ctx ~call:d.d_call
  end
  else failwith (Printf.sprintf "Tracefile: unknown entry tag 0x%02x" byte)
