type t = {
  mutable brk : int;
  live : (int, int) Hashtbl.t; (* base -> size *)
  mutable free_list : (int * int) list; (* (base, size), address order *)
  mutable sp : int;
  mutable frames : (int * int) list; (* (base, size) of pushed frames *)
  mutable live_bytes : int;
}

let heap_base = 0x0010_0000
let stack_top = 0x4000_0000

let create () =
  {
    brk = heap_base;
    live = Hashtbl.create 256;
    free_list = [];
    sp = stack_top;
    frames = [];
    live_bytes = 0;
  }

let align8 n = (n + 7) land lnot 7

(* First-fit search; an exact or split fit comes off the free list, otherwise
   the heap break grows. Adjacent free blocks are not coalesced — workloads
   here allocate in a handful of size classes, so fragmentation stays
   bounded and the simpler invariant (every free-list entry was exactly a
   freed block or its tail) is easier to check. *)
let alloc t size =
  if size <= 0 then invalid_arg "Addr_space.alloc: size must be positive";
  let size = align8 size in
  let rec take acc = function
    | [] -> None
    | (base, bsize) :: rest when bsize >= size ->
      let leftover =
        if bsize > size then [ (base + size, bsize - size) ] else []
      in
      Some (base, List.rev_append acc (leftover @ rest))
    | blk :: rest -> take (blk :: acc) rest
  in
  let base =
    match take [] t.free_list with
    | Some (base, free_list) ->
      t.free_list <- free_list;
      base
    | None ->
      let base = t.brk in
      t.brk <- t.brk + size;
      base
  in
  Hashtbl.replace t.live base size;
  t.live_bytes <- t.live_bytes + size;
  base

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg "Addr_space.free: not a live block base"
  | Some size ->
    Hashtbl.remove t.live addr;
    t.live_bytes <- t.live_bytes - size;
    t.free_list <- (addr, size) :: t.free_list

let push_frame t size =
  if size <= 0 then invalid_arg "Addr_space.push_frame: size must be positive";
  let size = align8 size in
  t.sp <- t.sp - size;
  let base = t.sp in
  t.frames <- (base, size) :: t.frames;
  base

let pop_frame t =
  match t.frames with
  | [] -> invalid_arg "Addr_space.pop_frame: no live frame"
  | (base, size) :: rest ->
    assert (base = t.sp);
    t.sp <- t.sp + size;
    t.frames <- rest

let live_block t addr =
  (* Walk live blocks only when asked (tests, debugging); hot paths never
     call this. *)
  Hashtbl.fold
    (fun base size acc ->
      match acc with
      | Some _ -> acc
      | None -> if addr >= base && addr < base + size then Some (base, size) else None)
    t.live None

let heap_live_bytes t = t.live_bytes
let live_blocks t = Hashtbl.length t.live
