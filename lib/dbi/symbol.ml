type id = int

type t = {
  stripped : bool;
  by_name : (string, id) Hashtbl.t;
  mutable names : string array;
  mutable n : int;
}

let code_page_size = 4096

(* Code pages live far above the data address space (see Addr_space). *)
let code_region_base = 0x4000_0000_0000

let create ?(stripped = false) () =
  { stripped; by_name = Hashtbl.create 64; names = Array.make 64 ""; n = 0 }

let intern t name =
  (* [find] rather than [find_opt]: a hit, the common case, allocates no
     option *)
  match Hashtbl.find t.by_name name with
  | id -> id
  | exception Not_found ->
    let id = t.n in
    if id = Array.length t.names then begin
      let grown = Array.make (2 * id) "" in
      Array.blit t.names 0 grown 0 id;
      t.names <- grown
    end;
    t.names.(id) <- name;
    t.n <- id + 1;
    Hashtbl.add t.by_name name id;
    id

let check t id =
  if id < 0 || id >= t.n then invalid_arg "Symbol: unknown id"

let name t id =
  check t id;
  if t.stripped then "???:" ^ string_of_int id else t.names.(id)

let code_base t id =
  check t id;
  code_region_base + (id * code_page_size)

let count t = t.n
let is_stripped t = t.stripped

let iter t f =
  for id = 0 to t.n - 1 do
    f id (if t.stripped then "???:" ^ string_of_int id else t.names.(id))
  done
