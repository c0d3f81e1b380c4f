(* Cmdliner terms of the programs that run a workload, sigil_run and
   sigil_trace: workload names, scale, domains, guards, stats and progress. *)

open Cmdliner

let known_workloads = "Known: " ^ String.concat ", " (Workloads.Suite.names ()) ^ "."

let workload_arg =
  let doc = "Workload to profile. " ^ known_workloads in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let workloads_arg =
  let doc = "Workloads to profile (one or more). " ^ known_workloads in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc)

let domains_arg =
  let doc =
    "Domains for multi-workload invocations: independent runs fan out over a fixed-size domain \
     pool, results return in submission order and are bit-identical to a sequential run. \
     Default: the host's recommended domain count (capped at 8)."
  in
  Arg.(
    value & opt Cli_common.pos_int (Pool.recommended ()) & info [ "j"; "domains" ] ~docv:"N" ~doc)

(* [with_domains n f] runs [f pool] with a pool of [n] domains, or with
   [None] when [n <= 1] (sequential, no domains spawned). *)
let with_domains n f =
  if n > 1 then Pool.with_pool ~domains:n (fun p -> f (Some p)) else f None

let scale_arg =
  let parse s =
    match Workloads.Scale.of_string s with
    | Ok _ as ok -> ok
    | Error e -> Error (`Msg e)
  in
  let print ppf s = Format.pp_print_string ppf (Workloads.Scale.name s) in
  let scale_conv = Arg.conv (parse, print) in
  let doc = "Input scale: simsmall, simmedium or simlarge." in
  Arg.(value & opt scale_conv Workloads.Scale.Simsmall & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let max_chunks_arg =
  let doc =
    "Memory-limit parameter: cap live second-level shadow chunks (freed FIFO), trading accuracy \
     for footprint."
  in
  Arg.(value & opt (some Cli_common.pos_int) None & info [ "max-chunks" ] ~docv:"N" ~doc)

let stripped_arg =
  let doc = "Profile as if the binary had no debugging symbols." in
  Arg.(value & flag & info [ "stripped" ] ~doc)

let resolve name =
  match Workloads.Suite.find name with
  | Ok w -> w
  | Error e ->
    prerr_endline ("error: " ^ e);
    exit 2

(* Exit codes: 0 success, 2 unknown workload / unreadable, corrupt or
   malformed input, 3 partial results (some jobs failed, the rest completed
   and were reported), 124 a usage error caught by cmdliner. *)
let exit_partial = 3

let timeout_arg =
  let doc =
    "Abort a workload once it has held the CPU for $(docv) wall-clock seconds (checked every \
     ~65k retired guest instructions); the rest of the batch still runs."
  in
  let non_negative = Cli_common.checked Arg.float (fun s -> s >= 0.0) "a non-negative number" in
  Arg.(value & opt (some non_negative) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let instr_budget_arg =
  let doc =
    "Abort a workload once its retired-instruction clock exceeds $(docv) — a deterministic, \
     platform-independent run bound."
  in
  Arg.(value & opt (some Cli_common.pos_int) None & info [ "instr-budget" ] ~docv:"N" ~doc)

let stats_arg =
  let doc =
    "Print the run's telemetry after the report: deterministic counters (shadow chunk \
     allocations/evictions, coalesced range runs, events dispatched) separated from \
     wall-clock timings. Collection itself is near-free; the probes are always on."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let stats_out_arg =
  let doc =
    "Write the telemetry of every run plus the merged aggregate to $(docv) as a \
     sigil-stats/1 JSON document (see docs/FORMATS.md). The deterministic sections are \
     bit-identical across -j levels."
  in
  Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc)

let stats_det_arg =
  let doc =
    "Restrict --stats/--stats-out to the deterministic domain, omitting every wall-clock \
     section — two --stats-out files from the same suite at different -j levels then compare \
     byte-identical."
  in
  Arg.(value & flag & info [ "stats-deterministic" ] ~doc)

let progress_arg =
  let doc =
    "Report run progress on stderr (workload, scale, instructions retired, evictions, ETA): a \
     live status line on a terminal, plain start/finish lines otherwise."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

(* [with_progress enabled n f] runs [f reporter] with a heartbeat sized for
   [n] jobs when enabled, closing it on the way out. *)
let with_progress enabled total f =
  if not enabled then f None
  else begin
    let p = Driver.Progress.create ~total () in
    Fun.protect ~finally:(fun () -> Driver.Progress.close p) (fun () -> f (Some p))
  end
