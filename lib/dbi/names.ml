type t = {
  symbols : string array;
  stripped : bool;
  parent : int array;
  fn : int array;
}

let empty = { symbols = [||]; stripped = false; parent = [||]; fn = [||] }

let make ~symbols ~contexts =
  let names = Array.make (Symbol.count symbols) "" in
  (* Symbol.iter yields the degraded "???:<id>" names on a stripped table,
     what the producing run itself could see *)
  Symbol.iter symbols (fun id name -> names.(id) <- name);
  let count = Context.count contexts in
  let parent = Array.make count (-1) and fn = Array.make count (-1) in
  for ctx = 1 to count - 1 do
    parent.(ctx) <- Option.get (Context.parent contexts ctx);
    fn.(ctx) <- Context.fn contexts ctx
  done;
  { symbols = names; stripped = Symbol.is_stripped symbols; parent; fn }

let root_name = "<root>"

let fn_name t fn =
  if fn < 0 then root_name
  else if fn < Array.length t.symbols then t.symbols.(fn)
  else "???:" ^ string_of_int fn

let known t ctx = ctx > Context.root && ctx < Array.length t.parent

let name t ctx =
  if ctx = Context.root then root_name
  else if known t ctx && t.fn.(ctx) >= 0 && t.fn.(ctx) < Array.length t.symbols then
    t.symbols.(t.fn.(ctx))
  else "ctx:" ^ string_of_int ctx

let path t ctx =
  let rec collect acc ctx =
    if ctx = Context.root then acc
    else if known t ctx then collect (name t ctx :: acc) t.parent.(ctx)
    else name t ctx :: acc
  in
  if ctx = Context.root then root_name else String.concat "/" (collect [] ctx)
