(* Shared plumbing for the benchmark harness: section headers, the domain
   pool and run caching. *)

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

let reuse_run name scale =
  cached ~tag:"reuse" ~name ~scale (fun () ->
      Driver.run_workload ~options:Sigil.Options.(with_reuse default) (workload name) scale)

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

(* The run's profile saved to a file and loaded back: Figs 7-11 and
   Tables II/III analyse what a reader without Sigil gets. *)
let saved_profile (run : Driver.run) =
  let snap = Sigil.Profile_io.snapshot_of_tool ?callgrind:run.Driver.callgrind (Driver.sigil run) in
  let path = Filename.temp_file "bench" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracefile.Profile_file.save snap path;
      Tracefile.Profile_file.load path)

let native_time name scale =
  Driver.time_native (workload name) scale

let pf = Printf.printf
