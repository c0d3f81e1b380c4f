type record =
  | Enter of Dbi.Symbol.id
  | Leave
  | Access of Dbi.Event.access * int * int
  | Op of Dbi.Event.op_kind * int
  | Branch of bool

(* A varint tag (one byte), then the fields as varints: a record depends
   on no other, so every section decodes on its own. *)
let encode buf r =
  List.iter (Varint.write buf)
    (match r with
    | Enter fn -> [ 1; fn ]
    | Leave -> [ 2 ]
    | Access (access, addr, size) -> [ (if access = Read then 3 else 4); addr; size ]
    | Op (kind, n) -> [ (if kind = Int_op then 5 else 6); n ]
    | Branch taken -> [ (if taken then 8 else 7) ])

let decode b ~len ~pos =
  let field () = Varint.read b ~len ~pos in
  match field () with
  | 1 -> Enter (field ())
  | 2 -> Leave
  | (3 | 4) as tag ->
    let addr = field () in
    Access ((if tag = 3 then Read else Write), addr, field ())
  | (5 | 6) as tag -> Op ((if tag = 5 then Int_op else Fp_op), field ())
  | (7 | 8) as tag -> Branch (tag = 8)
  | tag -> failwith (Printf.sprintf "unknown record tag %d" tag)

let add w r = Writer.add_record w encode r

let recorder w _machine : Dbi.Tool.t =
  {
    name = "trace-recorder";
    on_enter = (fun ~ctx:_ ~fn ~call:_ -> add w (Enter fn));
    on_leave = (fun ~ctx:_ ~fn:_ -> add w Leave);
    on_read = (fun ~ctx:_ ~addr ~size -> add w (Access (Read, addr, size)));
    on_write = (fun ~ctx:_ ~addr ~size -> add w (Access (Write, addr, size)));
    on_op = (fun ~ctx:_ ~kind ~count -> add w (Op (kind, count)));
    on_branch = (fun ~ctx:_ ~taken -> add w (Branch taken));
    on_finish = ignore;
  }

let record path workload =
  let w = Writer.create ~kind:Frame.Recording ~options_tag:"" path in
  match (Dbi.Runner.run ~tools:[ recorder w ] workload).machine with
  | m ->
    Writer.close ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m) w;
    m
  | exception e ->
    Writer.discard w;
    raise e

let iter r f = Reader.records r Frame.Recording decode f

(* An enter's symbol id resolves through the embedded symbol table. *)
let name r ~offset fn =
  let symbols = (Reader.names r).Dbi.Names.symbols in
  if fn < 0 || fn >= Array.length symbols then
    Frame.corrupt ~offset (Printf.sprintf "unknown symbol id %d" fn);
  symbols.(fn)

let to_line r ~offset = function
  | Enter fn -> "E " ^ name r ~offset fn
  | Leave -> "L"
  | Access (access, addr, size) ->
    Printf.sprintf "%s %d %d" (if access = Read then "R" else "W") addr size
  | Op (kind, n) -> Printf.sprintf "%s %d" (if kind = Int_op then "I" else "F") n
  | Branch taken -> if taken then "B 1" else "B 0"

let dump r oc =
  let n = ref 0 in
  iter r (fun offset rc ->
      output_string oc (to_line r ~offset rc ^ "\n");
      incr n);
  !n

(* Every record is checked against what [Machine] would reject, so a bad
   recording fails as [Frame.Corrupt] at the record's offset rather than
   as the machine's [Invalid_argument]. *)
let replay ~tools r =
  (* overhead ops were recorded explicitly; do not re-inject them *)
  let m = Dbi.Machine.create ~call_overhead:0 () in
  List.iter (fun make -> Dbi.Machine.attach m (make m)) tools;
  iter r (fun offset rc ->
      let check ok reason =
        if not ok then Frame.corrupt ~offset (reason ^ ": " ^ to_line r ~offset rc)
      in
      match rc with
      | Enter fn -> ignore (Dbi.Machine.enter m (name r ~offset fn))
      | Leave ->
        check (Dbi.Machine.stack_depth m > 0) "leave with no live call";
        Dbi.Machine.leave m
      | Access (access, addr, size) ->
        check (size >= 1) "size must be positive";
        (* every data address lies below the stack top *)
        check (addr >= 0 && addr <= Dbi.Addr_space.stack_top - size) "address out of range";
        (if access = Read then Dbi.Machine.read else Dbi.Machine.write) m addr size
      | Op (kind, n) ->
        check (n >= 0) "negative count";
        Dbi.Machine.op m kind n
      | Branch taken -> Dbi.Machine.branch m ~taken);
  let live = Dbi.Machine.stack_depth m in
  if live > 0 then
    Frame.corrupt ~offset:(Reader.data_end r)
      (Printf.sprintf "end of recording with %d call(s) still live" live);
  Dbi.Machine.finish m;
  m
