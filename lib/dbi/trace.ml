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

let apply_line machine line =
  let fail () = failwith ("Trace: malformed record: " ^ line) in
  let int_field s = match int_of_string_opt s with Some v -> v | None -> fail () in
  (* function names may contain spaces ("operator new"): E takes the rest
     of the line verbatim *)
  if String.length line > 2 && line.[0] = 'E' && line.[1] = ' ' then
    ignore (Machine.enter machine (String.sub line 2 (String.length line - 2)))
  else
  match String.split_on_char ' ' line with
  | [ "L" ] -> Machine.leave machine
  | [ "R"; addr; size ] -> Machine.read machine (int_field addr) (int_field size)
  | [ "W"; addr; size ] -> Machine.write machine (int_field addr) (int_field size)
  | [ "I"; count ] -> Machine.op machine Event.Int_op (int_field count)
  | [ "F"; count ] -> Machine.op machine Event.Fp_op (int_field count)
  | [ "B"; taken ] -> Machine.branch machine ~taken:(int_field taken <> 0)
  | _ -> fail ()

let replay_seq ~tools lines =
  (* overhead ops were recorded explicitly; do not re-inject them *)
  let machine = Machine.create ~call_overhead:0 () in
  List.iter (fun make -> Machine.attach machine (make machine)) tools;
  Seq.iter
    (fun line -> if String.trim line <> "" then apply_line machine (String.trim line))
    lines;
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
