type result = {
  machine : Machine.t;
  elapsed_s : float;
}

let run ?(stripped = false) ?call_overhead ?budget ?timeout_s ?(tools = []) ?on_start workload
    =
  let machine = Machine.create ~stripped ?call_overhead ?budget ?timeout_s () in
  List.iter (fun make -> Machine.attach machine (make machine)) tools;
  (match on_start with Some f -> f machine | None -> ());
  let t0 = Machine.monotonic_s () in
  workload machine;
  Machine.finish machine;
  let t1 = Machine.monotonic_s () in
  { machine; elapsed_s = t1 -. t0 }

let time_native workload = run ~tools:[] workload
