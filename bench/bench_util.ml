(* Shared plumbing for the benchmark harness: section headers, run caching,
   and a thin Bechamel wrapper that prints one ns/op estimate per test. *)

open Bechamel

let section = Analysis.Table.section

let banner title =
  let line = String.make 78 '#' in
  Printf.printf "\n%s\n## %s\n%s\n" line title line

(* The pool behind --domains N; [None] (or N = 1) keeps every code path
   sequential. Sections must only print from the main domain so stdout stays
   deterministic; parallel work returns values for the main domain to render. *)
let pool : Pool.t option ref = ref None
let set_pool p = pool := p

(* [pmap f xs] fans a per-item computation out over the pool (in submission
   order, so results match List.map exactly) or degrades to List.map. *)
let pmap f xs = match !pool with Some p -> Pool.map p f xs | None -> List.map f xs

(* Workload runs are expensive; every figure reuses them through this
   cache. Key: workload name, scale, tool configuration tag. The mutex makes
   the cache safe to fill from pool domains (prewarm); concurrent misses on
   the same key at worst run the workload twice, and since runs are
   deterministic either result is the same. *)
let cache : (string, Driver.run) Hashtbl.t = Hashtbl.create 64
let cache_lock = Mutex.create ()

let cached ~tag ~name ~scale make =
  let key = Printf.sprintf "%s/%s/%s" name (Workloads.Scale.name scale) tag in
  let hit = Mutex.protect cache_lock (fun () -> Hashtbl.find_opt cache key) in
  match hit with
  | Some run -> run
  | None ->
    let run = make () in
    Mutex.protect cache_lock (fun () ->
        match Hashtbl.find_opt cache key with
        | Some run -> run
        | None ->
          Hashtbl.add cache key run;
          run)

let workload name =
  match Workloads.Suite.find name with
  | Ok w -> w
  | Error e -> failwith e

(* dedup is the one benchmark run with the FIFO memory limiter, as in the
   paper (§III-A). *)
let dedup_max_chunks = 300

let baseline_options name =
  if name = "dedup" then Sigil.Options.with_max_chunks Sigil.Options.default dedup_max_chunks
  else Sigil.Options.default

let sigil_run ?(options_of = baseline_options) name scale =
  cached ~tag:"sigil" ~name ~scale (fun () ->
      Driver.run_workload ~options:(options_of name) (workload name) scale)

let reuse_run name scale =
  cached ~tag:"reuse" ~name ~scale (fun () ->
      Driver.run_workload ~options:Sigil.Options.(with_reuse default) (workload name) scale)

(* An events-mode run and its entries in trace order, copied out of the
   tool's sink (the tool keeps none and lends each). Not cached: the entries are the
   biggest thing a run can leave behind. *)
let events_run name scale =
  let entries = ref [] in
  let run =
    Driver.run_workload ~options:Sigil.Options.(with_events default)
      ~event_sink:(fun e -> entries := Sigil.Event_log.copy e :: !entries)
      (workload name) scale
  in
  (run, Array.of_list (List.rev !entries))

let line_run name scale =
  cached ~tag:"line" ~name ~scale (fun () ->
      Driver.run_workload
        ~options:(Sigil.Options.with_line_size Sigil.Options.default 64)
        (workload name) scale)

(* Sigil is built on top of Callgrind (§III), so "running Sigil" means
   both tools are attached: the Sigil run time includes Callgrind's work,
   exactly as in the paper's overhead figures. *)
let paired_run name scale =
  cached ~tag:"paired" ~name ~scale (fun () ->
      Driver.run_workload ~options:(baseline_options name) ~with_callgrind:true (workload name)
        scale)

let callgrind_run name scale =
  cached ~tag:"callgrind" ~name ~scale (fun () ->
      Driver.run_workload ~with_sigil:false ~with_callgrind:true (workload name) scale)

let native_time name scale =
  Driver.time_native (workload name) scale

(* Bechamel wrapper: run a group of microbenchmarks, print the OLS
   estimate (ns per run) for each, and return the [(name, ns)] rows so
   callers can feed BENCH_shadow.json or compute ratios. *)
let microbench ~name tests =
  let test = Test.make_grouped ~name tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None ~stabilize:false () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun key ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        (key, ns) :: acc)
      results []
  in
  let rows = List.sort compare rows in
  List.iter (fun (key, ns) -> Printf.printf "  %-50s %10.1f ns/op\n" key ns) rows;
  rows

(* [ns_of rows leaf] finds the grouped row whose path ends in [leaf]. *)
let ns_of rows leaf =
  match
    List.find_opt
      (fun (key, _) ->
        let n = String.length key and l = String.length leaf in
        n >= l && String.sub key (n - l) l = leaf)
      rows
  with
  | Some (_, ns) -> ns
  | None -> nan

let events_per_sec ns = if Float.is_nan ns || ns <= 0.0 then 0.0 else 1e9 /. ns

(* Machine-readable perf trajectory: sections push (key, json value)
   pairs; [write_bench_json] renders a flat one-object file. *)
let json_fields : (string * string) list ref = ref []
let json_num v = Printf.sprintf "%.1f" v
let json_add key value = json_fields := (key, value) :: !json_fields

let json_add_obj key fields =
  json_add key
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}")

(* CPU model from /proc/cpuinfo where there is one, for the host record. *)
let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> "unknown"
      | line -> (
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = "model name" ->
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | Some _ | None -> scan ())
    in
    let model = scan () in
    close_in ic;
    model

(* Writes nothing when no section added a field, so a run of sections
   without fields leaves the file as it was; otherwise writes it
   crash-safely. *)
let write_bench_json path =
  if !json_fields <> [] then begin
    let host =
      Printf.sprintf "{\"os\": %S, \"cpu\": %S, \"cores\": %d, \"ocaml\": %S}" Sys.os_type
        (cpu_model ())
        (Domain.recommended_domain_count ())
        Sys.ocaml_version
    in
    let fields = ("host", host) :: List.rev !json_fields in
    Dbi.Atomic_file.write path (fun oc ->
        Printf.fprintf oc "{\n%s\n}\n"
          (String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) fields)));
    Printf.printf "\nwrote %s\n" path
  end

let pf = Printf.printf
