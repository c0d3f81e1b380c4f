(* The one generator of random guest programs, shared by every property
   that runs generated guests through the tools and their specs: the
   action type, its generator, the interpreter that plays it on a machine,
   its printer, and a generator of cache geometries. A guest is a list of
   actions in the root context: root work before, between and after the
   top-level calls. It names no tool module, so a guest means the same to
   every tool it runs under. *)

type action =
  | Op of int
  | Fp of int
  | Read of int * int
  | Write of int * int
  | Memcpy of int * int * int (* dst, src, length *)
  | Syscall of (int * int) * (int * int) (* the span the kernel reads, the one it writes *)
  | Branch of bool
  | Call of string * action list

(* Straddle a chunk boundary (0x200000 is chunk-aligned, chunks are 4 KB)
   so random spans exercise the cross-chunk paths of the range engine. *)
let arena = 0x200000 - 16
let arena_size = 8192

(* The 4 KiB chunk boundaries inside the arena. *)
let boundaries = [ 0x200000; 0x201000 ]

(* Where a [len]-byte span starts: anywhere in the arena, or across or
   next to a chunk boundary. The boundary spans fall in a few dozen
   bytes, so the same bytes are read again by the same call, by another
   call and by another function. *)
let gen_addr len =
  let open QCheck.Gen in
  oneof
    [
      map (fun o -> arena + o) (int_range 0 (arena_size - len));
      map2 (fun b d -> b + d) (oneofl boundaries) (int_range (-len - 8) 8);
    ]

let gen_span max_len =
  QCheck.Gen.(int_range 1 max_len >>= fun len -> map (fun a -> (a, len)) (gen_addr len))

(* Op runs of 1,000 and more cover the cache model's line-batched fetches and
   a cursor that wraps its code page mid-run. *)
let gen_leaf =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun n -> Op (1 + n)) (int_range 0 50));
      (1, map (fun n -> Op (1000 + n)) (int_range 0 3200));
      (1, map (fun n -> Fp (1 + n)) (int_range 0 50));
      (4, map (fun (a, s) -> Read (a, s)) (gen_span 8));
      (3, map (fun (a, s) -> Write (a, s)) (gen_span 8));
      ( 1,
        gen_span 160 >>= fun (src, len) -> map (fun dst -> Memcpy (dst, src, len)) (gen_addr len) );
      (1, map2 (fun r w -> Syscall (r, w)) (gen_span 160) (gen_span 160));
      (1, map (fun b -> Branch b) bool);
    ]

let gen_name = QCheck.Gen.map (fun i -> Printf.sprintf "fn%d" i) (QCheck.Gen.int_range 0 7)

(* Calls nest three deep. A callee is this function again (recursion) or
   any other, and is sometimes called twice in a row, so its second call
   re-reads what the first read. *)
let rec gen_body depth name =
  let open QCheck.Gen in
  let callee = frequency [ (3, gen_name); (1, return name) ] in
  let call = callee >>= fun n -> map (fun body -> Call (n, body)) (gen_body (depth - 1) n) in
  let action =
    if depth = 0 then map (fun a -> [ a ]) gen_leaf
    else
      frequency
        [
          (8, map (fun a -> [ a ]) gen_leaf);
          (1, map (fun c -> [ c ]) call);
          (1, map (fun c -> [ c; c ]) call);
        ]
  in
  map List.concat (list_size (int_range 0 12) action)

let gen =
  let open QCheck.Gen in
  let top = gen_name >>= fun n -> map (fun body -> Call (n, body)) (gen_body 3 n) in
  list_size (int_range 1 5) (frequency [ (1, gen_leaf); (1, top) ])

(* Aligned accesses: every access covers exactly one 8-byte line (the
   arena base is 16-byte aligned), in calls two deep. *)
let gen_aligned =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Op (1 + n)) (int_range 0 50);
        map (fun a -> Read (arena + (8 * a), 8)) (int_range 0 ((arena_size / 8) - 1));
        map (fun a -> Write (arena + (8 * a), 8)) (int_range 0 ((arena_size / 8) - 1));
      ]
  in
  let body =
    fix
      (fun self depth ->
        let action =
          if depth = 0 then leaf
          else
            frequency [ (4, leaf); (1, map2 (fun n b -> Call (n, b)) gen_name (self (depth - 1))) ]
        in
        list_size (int_range 0 12) action)
      2
  in
  map2 (fun n b -> [ Call (n, b) ]) gen_name body

let rec interp m guest =
  List.iter
    (function
      | Op n -> Dbi.Guest.iop m n
      | Fp n -> Dbi.Guest.flop m n
      | Read (a, s) -> Dbi.Guest.read m a s
      | Write (a, s) -> Dbi.Guest.write m a s
      | Memcpy (dst, src, len) -> Dbi.Guest.memcpy m ~dst ~src len
      | Syscall (r, w) -> Dbi.Guest.syscall m "io" ~reads:[ r ] ~writes:[ w ]
      | Branch b -> Dbi.Guest.branch m b
      | Call (n, body) -> Dbi.Guest.call m n (fun () -> interp m body))
    guest

let rec print guest =
  String.concat ";"
    (List.map
       (function
         | Op n -> Printf.sprintf "i%d" n
         | Fp n -> Printf.sprintf "f%d" n
         | Read (a, s) -> Printf.sprintf "r%d+%d" (a - arena) s
         | Write (a, s) -> Printf.sprintf "w%d+%d" (a - arena) s
         | Memcpy (dst, src, len) -> Printf.sprintf "m%d<-%d+%d" (dst - arena) (src - arena) len
         | Syscall ((ra, rl), (wa, wl)) ->
           Printf.sprintf "s(r%d+%d,w%d+%d)" (ra - arena) rl (wa - arena) wl
         | Branch b -> if b then "b1" else "b0"
         | Call (n, body) -> Printf.sprintf "%s[%s]" n (print body))
       guest)

let arbitrary = QCheck.make ~print gen

(* A cache's size, associativity and line size, and the three caches of
   a hierarchy. *)
type cache = { size : int; assoc : int; line : int }
type caches = { l1i : cache; l1d : cache; ll : cache }

(* Geometries down to one set and one way, and lines from narrower than a
   fetch up to wider than a code page. *)
let gen_cache ~max_sets =
  let open QCheck.Gen in
  let pow2 lo hi = map (fun k -> 1 lsl k) (int_range lo hi) in
  map3
    (fun line assoc sets -> { size = line * assoc * sets; assoc; line })
    (oneof [ pow2 0 7; return 8192 ])
    (pow2 0 2) (pow2 0 max_sets)

let gen_caches =
  QCheck.Gen.map3
    (fun l1i l1d ll -> { l1i; l1d; ll })
    (gen_cache ~max_sets:3) (gen_cache ~max_sets:3) (gen_cache ~max_sets:5)

let print_caches c =
  let geo g = Printf.sprintf "%d/%d/%d" g.size g.assoc g.line in
  Printf.sprintf "l1i=%s l1d=%s ll=%s" (geo c.l1i) (geo c.l1d) (geo c.ll)
