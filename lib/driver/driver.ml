module Progress = Progress

type run = {
  workload : Workloads.Workload.t;
  scale : Workloads.Scale.t;
  machine : Dbi.Machine.t;
  sigil : Sigil.Tool.t option;
  callgrind : Callgrind.Tool.t option;
  elapsed_s : float;
  stats : Telemetry.snapshot option;
}

module Run_error = struct
  type cause =
    | Raised of string
    | Timeout of { limit_s : float; now : int }
    | Budget_exhausted of { budget : int; now : int }

  type t = {
    workload : string;
    scale : Workloads.Scale.t;
    cause : cause;
    backtrace : string;
  }

  let cause_to_string = function
    | Raised msg -> msg
    | Timeout { limit_s; now } ->
      Printf.sprintf "timed out after %gs (retired-instruction clock %d)" limit_s now
    | Budget_exhausted { budget; now } ->
      Printf.sprintf "instruction budget %d exhausted (clock %d)" budget now

  let to_string e =
    Printf.sprintf "%s@%s: %s" e.workload (Workloads.Scale.name e.scale)
      (cause_to_string e.cause)
end

let run_workload ?(options = Sigil.Options.default) ?event_sink ?(with_sigil = true)
    ?(with_callgrind = false) ?(stripped = false) ?on_start (workload : Workloads.Workload.t)
    scale =
  let sigil_tool = ref None in
  let callgrind_tool = ref None in
  let tools =
    (if with_sigil then
       [
         (fun m ->
           let t = Sigil.Tool.create ~options ?event_sink m in
           sigil_tool := Some t;
           Sigil.Tool.tool t);
       ]
     else [])
    @
    if with_callgrind then
      [
        (fun m ->
          let t = Callgrind.Tool.create m in
          callgrind_tool := Some t;
          Callgrind.Tool.tool t);
      ]
    else []
  in
  (* tool refs are filled during attachment, so the runner's hook can hand
     a progress reporter the live tool state as well as the machine *)
  let on_start =
    Option.map (fun f -> fun machine -> f machine !sigil_tool) on_start
  in
  let r =
    Dbi.Runner.run ~stripped ?budget:options.Sigil.Options.instr_budget
      ?timeout_s:options.Sigil.Options.timeout_s ~tools ?on_start (fun m ->
        workload.Workloads.Workload.run m scale)
  in
  let machine = r.Dbi.Runner.machine in
  let stats =
    if options.Sigil.Options.collect_stats then
      Some
        (Telemetry.of_samples
           (Dbi.Machine.telemetry machine
           @ (match !sigil_tool with Some t -> Sigil.Tool.telemetry t | None -> [])
           @ [ Telemetry.seconds "run.elapsed_s" r.Dbi.Runner.elapsed_s ]))
    else None
  in
  {
    workload;
    scale;
    machine;
    sigil = !sigil_tool;
    callgrind = !callgrind_tool;
    elapsed_s = r.Dbi.Runner.elapsed_s;
    stats;
  }

(* A job is its workload and scale (named in progress lines and errors)
   and the run itself, with its optional arguments already applied. *)
type job = {
  j_workload : Workloads.Workload.t;
  j_scale : Workloads.Scale.t;
  j_run : ?on_start:(Dbi.Machine.t -> Sigil.Tool.t option -> unit) -> unit -> run;
}

let job ?options ?event_sink ?with_sigil ?with_callgrind ?stripped workload scale =
  {
    j_workload = workload;
    j_scale = scale;
    j_run =
      (fun ?on_start () ->
        run_workload ?options ?event_sink ?with_sigil ?with_callgrind ?stripped ?on_start workload
          scale);
  }

let classify = function
  | Dbi.Machine.Timeout { limit_s; now } -> Run_error.Timeout { limit_s; now }
  | Dbi.Machine.Budget_exhausted { budget; now } -> Run_error.Budget_exhausted { budget; now }
  | e -> Run_error.Raised (Printexc.to_string e)

(* A job's exception (with its backtrace) is captured inside the task, so
   from [Pool]'s point of view every task returns normally: a crashing
   workload can never take the rest of the batch down with it. *)
let attempt ?on_start j =
  match j.j_run ?on_start () with
  | r -> Ok r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Error
      {
        Run_error.workload = j.j_workload.Workloads.Workload.name;
        scale = j.j_scale;
        cause = classify e;
        backtrace = Printexc.raw_backtrace_to_string bt;
      }

(* Every run owns its machine, tool state and PRNG (nothing in the guest or
   tool layer is global), so fanning a batch across domains is safe and —
   because [Pool.map] preserves submission order — bit-identical to the
   sequential loop. *)
let run_many ?pool ?progress jobs =
  let task =
    match progress with
    | None -> fun j -> attempt j
    | Some p ->
      fun j ->
        let h =
          Progress.start p ~workload:j.j_workload.Workloads.Workload.name
            ~scale:(Workloads.Scale.name j.j_scale)
        in
        let result = attempt ~on_start:(Progress.attach p h) j in
        Progress.finish p h ~ok:(Result.is_ok result);
        result
  in
  match pool with
  | None -> List.map task jobs
  | Some p -> Pool.map p task jobs

let time_native (w : Workloads.Workload.t) scale =
  (Dbi.Runner.time_native (fun m -> w.Workloads.Workload.run m scale)).Dbi.Runner.elapsed_s

let sigil run =
  match run.sigil with
  | Some t -> t
  | None -> invalid_arg "Driver.sigil: Sigil was not attached to this run"

let callgrind run =
  match run.callgrind with
  | Some t -> t
  | None -> invalid_arg "Driver.callgrind: Callgrind was not attached to this run"

module Stats = struct
  let of_run r = Option.value r.stats ~default:Telemetry.empty

  (* Submission-order fold; [Telemetry.merge] is associative and
     commutative, so this equals any other merge order — the aggregate of a
     [-j 8] batch is bit-identical to the sequential one. Suite shape
     counters are deterministic; pool accounting (when a pool was used) is
     wall-clock by construction. *)
  let aggregate ?pool results =
    let per_run =
      List.fold_left
        (fun acc -> function
          | Ok r -> Telemetry.merge acc (of_run r)
          | Error _ -> acc)
        Telemetry.empty results
    in
    let shape =
      Telemetry.of_samples
        [
          Telemetry.count "suite.runs" (List.length results);
          Telemetry.count "suite.failures"
            (List.length (List.filter Result.is_error results));
        ]
    in
    let pool_samples =
      match pool with
      | Some p -> Telemetry.of_samples (Pool.telemetry p)
      | None -> Telemetry.empty
    in
    Telemetry.merge (Telemetry.merge per_run shape) pool_samples

  let run_json ~wall name result =
    match result with
    | Error e ->
      Printf.sprintf "    {\"workload\": %S, \"ok\": false, \"error\": %S}" name
        (Run_error.to_string e)
    | Ok r ->
      let s = of_run r in
      let det = Telemetry.json_object ~indent:"      " (Telemetry.deterministic s) in
      if wall then
        Printf.sprintf
          "    {\"workload\": %S, \"ok\": true, \"deterministic\": %s, \"wall_clock\": %s}"
          name det
          (Telemetry.json_object ~indent:"      " (Telemetry.wall s))
      else Printf.sprintf "    {\"workload\": %S, \"ok\": true, \"deterministic\": %s}" name det

  let to_json ?(wall = true) ?pool ~scale named_results =
    let agg = aggregate ?pool (List.map snd named_results) in
    let agg = if wall then agg else Telemetry.deterministic agg in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n  \"schema\": \"sigil-stats/1\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"scale\": %S,\n" (Workloads.Scale.name scale));
    Buffer.add_string buf "  \"runs\": [\n";
    Buffer.add_string buf
      (String.concat ",\n"
         (List.map (fun (name, result) -> run_json ~wall name result) named_results));
    Buffer.add_string buf "\n  ],\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"aggregate\": %s\n}\n" (Telemetry.to_json agg));
    Buffer.contents buf

  let write_json ?wall ?pool ~scale named_results path =
    let json = to_json ?wall ?pool ~scale named_results in
    Dbi.Atomic_file.write path (fun oc -> output_string oc json)
end
