exception Truncated

let write buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    (* lsr sees the 63-bit pattern, so negative ints terminate in 9 bytes *)
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* zigzag: small magnitudes of either sign encode short *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))
let write_signed buf n = write buf (zigzag n)

let read b ~len ~pos =
  let r = ref 0 and shift = ref 0 and p = ref !pos and continue = ref true in
  while !continue do
    (* 9 groups of 7 bits cover the 63-bit int; a 10th byte is overlong *)
    if !p >= len || !shift > 62 then raise Truncated;
    let c = Char.code (Bytes.get b !p) in
    incr p;
    r := !r lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    if c land 0x80 = 0 then continue := false
  done;
  pos := !p;
  !r

let read_signed b ~len ~pos = unzigzag (read b ~len ~pos)
