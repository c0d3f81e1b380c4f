open Dbi

(* A libm entry point: read the argument, run the polynomial, write the
   result. [flops] is tuned so computation dwarfs the 16 communicated
   bytes (breakeven close to 1, Table II). *)
let math_fn name flops m ~arg ~res =
  Guest.call m name (fun () ->
      Guest.read m arg 8;
      Guest.flop m flops;
      Guest.write m res 8)

let ieee754_exp = math_fn "_ieee754_exp" 120
let ieee754_log = math_fn "_ieee754_log" 140
let ieee754_expf = math_fn "_ieee754_expf" 90
let ieee754_logf = math_fn "_ieee754_logf" 100
let ieee754_sqrt = math_fn "_ieee754_sqrt" 70

let mpn_mul m ~a ~b ~res =
  Guest.call m "__mpn_mul" (fun () ->
      Guest.read_range m a 32;
      Guest.read_range m b 32;
      Guest.iop m 320;
      Guest.write_range m res 64)

(* Shifts move as much data as they compute over: poor candidates
   (Table III: __mpn_rshift 1.63, __mpn_lshift 1.21). *)
let mpn_shift name iops m ~src ~dst =
  Guest.call m name (fun () ->
      Guest.read_range m src 32;
      Guest.iop m iops;
      Guest.write_range m dst 32)

let mpn_lshift = mpn_shift "__mpn_lshift" 40
let mpn_rshift = mpn_shift "__mpn_rshift" 24

let isnan m ~arg =
  Guest.call m "isnan" (fun () ->
      Guest.read m arg 8;
      Guest.iop m 6;
      false)

let strtof m ~src ~dst =
  Guest.call m "strtof" (fun () ->
      (* one read and a handful of ops per character *)
      for i = 0 to 11 do
        Guest.read m (src + i) 1;
        Guest.iop m 12
      done;
      Guest.write m dst 4)

let memcpy m ~dst ~src ~len = Guest.call m "memcpy" (fun () -> Guest.memcpy m ~dst ~src len)

let memmove m ~dst ~src ~len =
  Guest.call m "memmove" (fun () ->
      Guest.iop m 8;
      (* overlap check *)
      Guest.memcpy m ~dst ~src len)

let memchr m ~src ~len rng =
  Guest.call m "memchr" (fun () ->
      let pos = Prng.int rng (max 1 len) in
      let rec scan off =
        if off >= pos || off >= len then off
        else begin
          Guest.read m (src + off) (min 8 (len - off));
          Guest.iop m 10;
          scan (off + 8)
        end
      in
      scan 0)

let string_compare m ~a ~b ~len =
  Guest.call m "std::string::compare" (fun () ->
      let rec go off =
        if off < len then begin
          Guest.read m (a + off) (min 8 (len - off));
          Guest.read m (b + off) (min 8 (len - off));
          Guest.iop m 6;
          go (off + 8)
        end
      in
      go 0)

let string_assign m ~dst ~src ~len =
  Guest.call m "std::string::assign" (fun () ->
      Guest.iop m 6;
      Guest.memcpy m ~dst ~src len)

(* Allocator pseudo-logic: touch the free-list head, write a header. The
   real allocation happens outside guest accounting. *)
let freelist_head = Addr_space.heap_base (* first heap word doubles as allocator state *)

let operator_new m size =
  Guest.call m "operator new" (fun () ->
      let addr = Guest.alloc m (size + 16) in
      Guest.read m freelist_head 8;
      Guest.iop m 10;
      Guest.write_range m addr 16;
      Guest.write m freelist_head 8;
      addr + 16)

let free m addr =
  Guest.call m "free" (fun () ->
      let base = addr - 16 in
      Guest.read_range m base 16;
      Guest.iop m 14;
      Guest.write m base 8;
      Guest.write m freelist_head 8;
      Guest.free m base)

let std_vector_ctor m ~elems ~elem_size =
  Guest.call m "std::vector" (fun () ->
      let data = operator_new m (elems * elem_size) in
      Guest.iop m 12;
      Guest.write_range m (data - 16) 16;
      (* begin/end/cap pointers live in the header *)
      data)

let std_basic_string m ~len =
  Guest.call m "std::basic_string" (fun () ->
      let buf = operator_new m len in
      Guest.iop m 10;
      Guest.write_range m (buf - 16) 16;
      buf)

let std_locale m =
  Guest.call m "std::locale::locale" (fun () ->
      Guest.with_frame m 64 (fun fr ->
          Guest.read_range m fr 64;
          Guest.iop m 8;
          Guest.write_range m fr 16))

let dl_addr m =
  Guest.call m "dl_addr" (fun () ->
      Guest.with_frame m 48 (fun fr ->
          Guest.read_range m fr 48;
          Guest.iop m 12;
          Guest.write m fr 8))

let io_file_xsgetn m ~dst ~len =
  Guest.call m "_IO_file_xsgetn" (fun () ->
      Guest.with_buffer m len (fun stream_buf ->
          Guest.syscall m "read" ~reads:[] ~writes:[ (stream_buf, len) ];
          Guest.iop m 16;
          Guest.memcpy m ~dst ~src:stream_buf len))

let io_sputbackc m ~buf =
  Guest.call m "_IO_sputbackc" (fun () ->
      Guest.read m buf 8;
      Guest.iop m 6;
      Guest.write m buf 1)

let write_file m ~src ~len =
  Guest.call m "write_file" (fun () ->
      Guest.read_range m src len;
      Guest.iop m (len / 8);
      Guest.syscall m "write" ~reads:[ (src, len) ] ~writes:[])

let sha1_block_data_order m ~buf ~len ~state =
  Guest.call m "sha1_block_data_order" (fun () ->
      Guest.read_range m state 20;
      let rec go off =
        if off < len then begin
          Guest.read_range m (buf + off) (min 64 (len - off));
          (* 80 rounds of mixing per 64-byte block *)
          Guest.iop m 400;
          go (off + 64)
        end
      in
      go 0;
      Guest.write_range m state 20)

let adler32 m ~buf ~len ~res =
  Guest.call m "adler32" (fun () ->
      let rec go off =
        if off < len then begin
          Guest.read m (buf + off) (min 8 (len - off));
          Guest.iop m 4;
          go (off + 8)
        end
      in
      go 0;
      Guest.write m res 8)

let tr_flush_block m ~src ~len ~dst =
  Guest.call m "_tr_flush_block" (fun () ->
      let out = ref 0 in
      let rec go off =
        if off < len then begin
          Guest.read m (src + off) (min 8 (len - off));
          Guest.iop m 24;
          (* huffman emit: roughly every other word survives *)
          if off land 8 = 0 then begin
            Guest.write m (dst + !out) (min 8 (len - off));
            out := !out + 8
          end;
          go (off + 8)
        end
      in
      go 0;
      Guest.iop m 60;
      (* tree wrap-up *)
      !out)

let hashtable_search m ~buckets ~key ~probes =
  Guest.call m "hashtable_search" (fun () ->
      Guest.read m key 8;
      Guest.iop m 8;
      (* hash *)
      let rec walk i slot =
        if i >= probes then slot
        else begin
          Guest.read m slot 8;
          (* chain pointer *)
          Guest.read m (slot + 8) 8;
          (* stored key *)
          Guest.iop m 4;
          walk (i + 1) (slot + 16)
        end
      in
      walk 0 buckets)

let drand48_iterate m ~state =
  Guest.call m "drand48_iterate" (fun () ->
      Guest.read_range m state 16;
      (* 48-bit LCG via 64-bit multiply-add sequences *)
      Guest.iop m 26;
      Guest.write_range m state 16)

let nrand48_r m ~state =
  Guest.call m "nrand48_r" (fun () ->
      drand48_iterate m ~state;
      Guest.read m state 8;
      Guest.iop m 6)

let lrand48 m ~state rng =
  Guest.call m "lrand48" (fun () ->
      nrand48_r m ~state;
      Guest.iop m 4;
      Prng.int rng max_int)
