type id = int

type node = {
  fn : Symbol.id;
  parent : id;
  depth : int;
  mutable children_rev : id list;
}

type t = {
  by_key : (int, id) Hashtbl.t; (* key = parent * 2^20 + fn, see [key] *)
  mutable nodes : node option array;
  mutable n : int;
}

let root = 0

(* Contexts and symbols are both dense small ints; pack the pair into one
   int key. 2^20 functions per profile is far beyond any workload here. *)
let key parent fn = (parent lsl 20) lor fn

let create () =
  let t = { by_key = Hashtbl.create 256; nodes = Array.make 256 None; n = 0 } in
  t.nodes.(0) <- Some { fn = -1; parent = -1; depth = 0; children_rev = [] };
  t.n <- 1;
  t

let node t id =
  if id < 0 || id >= t.n then invalid_arg "Context: unknown id";
  match t.nodes.(id) with
  | Some n -> n
  | None -> invalid_arg "Context: unknown id"

let enter t parent fn =
  if fn < 0 || fn >= 1 lsl 20 then invalid_arg "Context.enter: bad function id";
  let k = key parent fn in
  (* [find] rather than [find_opt]: a hit, the common case, allocates no
     option *)
  match Hashtbl.find t.by_key k with
  | id -> id
  | exception Not_found ->
    let pnode = node t parent in
    let id = t.n in
    if id = Array.length t.nodes then begin
      let grown = Array.make (2 * id) None in
      Array.blit t.nodes 0 grown 0 id;
      t.nodes <- grown
    end;
    t.nodes.(id) <- Some { fn; parent; depth = pnode.depth + 1; children_rev = [] };
    pnode.children_rev <- id :: pnode.children_rev;
    t.n <- id + 1;
    Hashtbl.add t.by_key k id;
    id

let fn t id =
  if id = root then invalid_arg "Context.fn: root has no function";
  (node t id).fn

let parent t id = if id = root then None else Some (node t id).parent
let depth t id = (node t id).depth
let count t = t.n

let iter t f =
  for id = 0 to t.n - 1 do
    f id
  done

let children t id = List.rev (node t id).children_rev
