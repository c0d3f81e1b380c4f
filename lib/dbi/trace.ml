let recorder oc machine : Tool.t =
  let symbols = Machine.symbols machine in
  let contexts = Machine.contexts machine in
  {
    name = "trace-recorder";
    on_enter =
      (fun ~ctx ~fn:_ ~call:_ ->
        output_string oc "E ";
        output_string oc (Symbol.name symbols (Context.fn contexts ctx));
        output_char oc '\n');
    on_leave = (fun ~ctx:_ ~fn:_ -> output_string oc "L\n");
    on_read = (fun ~ctx:_ ~addr ~size -> Printf.fprintf oc "R %d %d\n" addr size);
    on_write = (fun ~ctx:_ ~addr ~size -> Printf.fprintf oc "W %d %d\n" addr size);
    on_op =
      (fun ~ctx:_ ~kind ~count ->
        match kind with
        | Event.Int_op -> Printf.fprintf oc "I %d\n" count
        | Event.Fp_op -> Printf.fprintf oc "F %d\n" count);
    on_branch = (fun ~ctx:_ ~taken -> Printf.fprintf oc "B %d\n" (if taken then 1 else 0));
    on_finish = (fun () -> flush oc);
  }

let record path workload =
  Atomic_file.write path (fun oc -> (Runner.run ~tools:[ recorder oc ] workload).Runner.machine)

(* Every record is checked against what [Machine] would reject, so a bad
   trace fails as a [Failure] naming its line rather than as the machine's
   [Invalid_argument]. *)
let apply_line machine lineno line =
  let fail reason = failwith (Printf.sprintf "Trace: line %d: %s: %s" lineno reason line) in
  let int_field s = match int_of_string_opt s with Some v -> v | None -> fail "malformed record" in
  let size s = match int_field s with v when v > 0 -> v | _ -> fail "size must be positive" in
  let count s = match int_field s with v when v >= 0 -> v | _ -> fail "negative count" in
  (* an access must fit below the stack top, where every data address lies *)
  let access addr sz =
    let addr = int_field addr and size = size sz in
    if addr < 0 || addr > Addr_space.stack_top - size then fail "address out of range";
    (addr, size)
  in
  (* function names may contain spaces ("operator new"): E takes the rest
     of the line verbatim *)
  if String.length line > 2 && line.[0] = 'E' && line.[1] = ' ' then
    ignore (Machine.enter machine (String.sub line 2 (String.length line - 2)))
  else
  match String.split_on_char ' ' line with
  | [ "L" ] ->
    if Machine.stack_depth machine = 0 then fail "leave with no live call";
    Machine.leave machine
  | [ "R"; addr; sz ] ->
    let addr, size = access addr sz in
    Machine.read machine addr size
  | [ "W"; addr; sz ] ->
    let addr, size = access addr sz in
    Machine.write machine addr size
  | [ "I"; n ] -> Machine.op machine Event.Int_op (count n)
  | [ "F"; n ] -> Machine.op machine Event.Fp_op (count n)
  | [ "B"; taken ] -> Machine.branch machine ~taken:(int_field taken <> 0)
  | _ -> fail "malformed record"

let replay_seq ~tools lines =
  (* overhead ops were recorded explicitly; do not re-inject them *)
  let machine = Machine.create ~call_overhead:0 () in
  List.iter (fun make -> Machine.attach machine (make machine)) tools;
  let lineno = ref 0 in
  Seq.iter
    (fun line ->
      incr lineno;
      let line = String.trim line in
      if line <> "" then apply_line machine !lineno line)
    lines;
  let open_calls = Machine.stack_depth machine in
  if open_calls > 0 then
    failwith
      (Printf.sprintf "Trace: line %d: end of trace with %d call(s) still live" !lineno
         open_calls);
  Machine.finish machine;
  machine

let replay ~tools path =
  let ic = open_in path in
  let lines =
    Seq.of_dispenser (fun () ->
        match input_line ic with
        | line -> Some line
        | exception End_of_file -> None)
  in
  match replay_seq ~tools lines with
  | machine ->
    close_in ic;
    machine
  | exception e ->
    close_in_noerr ic;
    raise e

let replay_events ~tools lines = replay_seq ~tools (List.to_seq lines)
