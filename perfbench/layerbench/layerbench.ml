(* One pass of one benchmark workload, in a process of its own.

   run.py starts this program once per pass, so VmHWM is the pass's own
   high-water mark, and reads the single JSON object it prints. The load is
   a closed loop in one domain: jobs run one after another, no Pool.

   Modes:
   - plain     the untraced pass that end-to-end metrics come from;
   - traced    the same pass with every tool callback and the event sink
               wrapped in timers, and coarse stages recorded as spans;
   - baseline  native and Sigil-only runs of the same guest programs, for
               the per-layer allocation split;
   - setup     stops at the first guest event (set-up time probes). *)

external clock_ns : unit -> (int[@untagged]) = "perfbench_clock_ns_byte" "perfbench_clock_ns"
[@@noalloc]

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json = I of int | F of float | S of string | B of bool | L of json list | O of (string * json) list

let rec add_json b = function
  | I n -> Buffer.add_string b (string_of_int n)
  | F x -> Buffer.add_string b (if Float.is_finite x then Printf.sprintf "%.17g" x else "null")
  | B v -> Buffer.add_string b (string_of_bool v)
  | S s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | L xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        add_json b x)
      xs;
    Buffer.add_char b ']'
  | O kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_json b (S k);
        Buffer.add_char b ':';
        add_json b v)
      kvs;
    Buffer.add_char b '}'

(* ------------------------------------------------------------------ *)
(* Pass state                                                          *)
(* ------------------------------------------------------------------ *)

type mode = Plain | Traced | Baseline | Setup

(* A layer whose work arrives one guest event at a time: one self time and
   one call count, because a span per event would outweigh the run. *)
type layer = { mutable ns : int; mutable calls : int }

type span = {
  id : int;
  parent : int;
  name : string;
  start : int;
  mutable stop : int;
  mutable layers : (string * int * int) list; (* aggregated layer, ns, calls *)
}

type pass = {
  mode : mode;
  work : string;
  callgrind_l : layer;
  sigil_l : layer;
  sink_l : layer;
  mutable spans : span list;
  mutable current : int; (* id of the innermost open span; 0 = the pass *)
  mutable next_id : int;
  mutable first_event : int;
  mutable guest_s : float;
  mutable guest_words : float;
  mutable jobs : int;
  mutable failed_jobs : int;
  mutable failures : string list;
  mutable outputs : (string * json) list;
  mutable stats_off : bool;
  mutable per_byte_off : bool;
  counters : (string, int) Hashtbl.t; (* deterministic: must repeat exactly *)
  measures : (string, float) Hashtbl.t; (* host-dependent *)
}

exception Setup_done

let count p key n =
  Hashtbl.replace p.counters key (n + Option.value ~default:0 (Hashtbl.find_opt p.counters key))

let peak p key n =
  Hashtbl.replace p.counters key (max n (Option.value ~default:0 (Hashtbl.find_opt p.counters key)))

let measure p key x =
  Hashtbl.replace p.measures key (x +. Option.value ~default:0.0 (Hashtbl.find_opt p.measures key))

let fail p fmt = Printf.ksprintf (fun msg -> p.failures <- msg :: p.failures) fmt

let vmhwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | Some _ -> go ()
      in
      go ())

(* Spans exist only in traced passes; elsewhere [span] is a plain call. *)
let span p name f =
  if p.mode <> Traced then f ()
  else begin
    let s = { id = p.next_id; parent = p.current; name; start = clock_ns (); stop = 0; layers = [] } in
    p.next_id <- p.next_id + 1;
    p.spans <- s :: p.spans;
    p.current <- s.id;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- clock_ns ();
        p.current <- s.parent)
      f
  end

let[@inline] stop l t0 =
  l.ns <- l.ns + (clock_ns () - t0);
  l.calls <- l.calls + 1

let timed_tool l (t : Dbi.Tool.t) : Dbi.Tool.t =
  {
    t with
    on_enter =
      (fun ~ctx ~fn ~call ->
        let t0 = clock_ns () in
        t.on_enter ~ctx ~fn ~call;
        stop l t0);
    on_leave =
      (fun ~ctx ~fn ->
        let t0 = clock_ns () in
        t.on_leave ~ctx ~fn;
        stop l t0);
    on_read =
      (fun ~ctx ~addr ~size ->
        let t0 = clock_ns () in
        t.on_read ~ctx ~addr ~size;
        stop l t0);
    on_write =
      (fun ~ctx ~addr ~size ->
        let t0 = clock_ns () in
        t.on_write ~ctx ~addr ~size;
        stop l t0);
    on_op =
      (fun ~ctx ~kind ~count ->
        let t0 = clock_ns () in
        t.on_op ~ctx ~kind ~count;
        stop l t0);
    on_branch =
      (fun ~ctx ~taken ->
        let t0 = clock_ns () in
        t.on_branch ~ctx ~taken;
        stop l t0);
    on_finish =
      (fun () ->
        let t0 = clock_ns () in
        t.on_finish ();
        stop l t0);
  }

let timed_sink l (sink : Sigil.Event_log.sink) : Sigil.Event_log.sink =
 fun e ->
  let t0 = clock_ns () in
  sink e;
  stop l t0

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

type run = {
  machine : Dbi.Machine.t;
  sigil : Sigil.Tool.t;
  callgrind : Callgrind.Tool.t option;
  trace : string option; (* closed trace file, when the job streams events *)
}

(* One guest run plus the post-processing and output check that follow
   it. A job that raises, or whose check fails, is one failed operation. *)
type job = {
  name : string;
  program : Dbi.Machine.t -> unit;
  suite : (Workloads.Workload.t * Workloads.Scale.t) option; (* for Driver.time_native *)
  options : Sigil.Options.t;
  with_callgrind : bool;
  events : bool; (* stream events into a Tracefile.Writer *)
  check : pass -> job -> run -> (string * json) list;
}

let suite_job ?(events = false) ?(with_callgrind = false) ~options ~check scale
    (w : Workloads.Workload.t) =
  {
    name = w.Workloads.Workload.name;
    program = (fun m -> w.Workloads.Workload.run m scale);
    suite = Some (w, scale);
    options;
    with_callgrind;
    events;
    check;
  }

let started p _machine =
  if p.first_event = 0 then begin
    p.first_event <- clock_ns ();
    if p.mode = Setup then raise Setup_done
  end

(* Tools are built through Runner.run ~tools, Sigil first and Callgrind on
   top, as Driver.run_workload attaches them; a traced pass wraps each
   returned callback record. *)
let guest_run p job ?sink () =
  let sigil = ref None and cg = ref None in
  let wrap l tool = if p.mode = Traced then timed_tool l tool else tool in
  let tools =
    (fun m ->
      let t = Sigil.Tool.create ~options:job.options ?event_sink:sink m in
      sigil := Some t;
      wrap p.sigil_l (Sigil.Tool.tool t))
    ::
    (if job.with_callgrind then
       [
         (fun m ->
           let t = Callgrind.Tool.create m in
           cg := Some t;
           wrap p.callgrind_l (Callgrind.Tool.tool t));
       ]
     else [])
  in
  let mark l = (l, l.ns, l.calls) in
  let since (l, ns, calls) = (l.ns - ns, l.calls - calls) in
  let cg0 = mark p.callgrind_l and sg0 = mark p.sigil_l and sk0 = mark p.sink_l in
  let w0 = Gc.minor_words () in
  let r =
    span p ("guest_run:" ^ job.name) (fun () ->
        let r = Dbi.Runner.run ~tools ~on_start:(started p) job.program in
        (* no other span opens during a guest run, so the newest span is
           this one *)
        (if p.mode = Traced then
           let cg_ns, cg_calls = since cg0 and sg_ns, sg_calls = since sg0 in
           let sk_ns, sk_calls = since sk0 in
           (* the sink runs inside Sigil's callbacks *)
           (List.hd p.spans).layers <-
             [
               ("callgrind", cg_ns, cg_calls);
               ("sigil", sg_ns - sk_ns, sg_calls);
               ("tracefile.writer", sk_ns, sk_calls);
             ]);
        r)
  in
  p.guest_words <- p.guest_words +. (Gc.minor_words () -. w0);
  p.guest_s <- p.guest_s +. r.Dbi.Runner.elapsed_s;
  let m = r.Dbi.Runner.machine in
  let sigil = Option.get !sigil in
  let o = Sigil.Tool.options sigil in
  p.stats_off <- p.stats_off && not o.Sigil.Options.collect_stats;
  p.per_byte_off <- p.per_byte_off && not o.Sigil.Options.per_byte_shadow;
  let c = Dbi.Machine.counters m in
  count p "dbi.instr" (Dbi.Machine.now m);
  count p "dbi.events" Dbi.Machine.(c.reads + c.writes + c.calls + c.branches + c.syscalls);
  let tel = Telemetry.of_samples (Sigil.Tool.telemetry sigil) in
  count p "sigil.shadow_chunk_allocs" (Telemetry.get_int tel "shadow.chunks_allocated");
  count p "sigil.shadow_evictions" (Telemetry.get_int tel "shadow.evictions");
  count p "sigil.shadow_range_runs" (Telemetry.get_int tel "shadow.range_runs");
  peak p "sigil.shadow_footprint_peak_bytes" (Telemetry.get_int tel "shadow.footprint_peak_bytes");
  count p "sigil.line_lines" (Telemetry.get_int tel "line.lines");
  Option.iter
    (fun cg ->
      let t = Callgrind.Tool.total cg in
      count p "callgrind.i1_miss" t.Callgrind.Cost.i1mr;
      count p "callgrind.d1_miss" (t.Callgrind.Cost.d1mr + t.Callgrind.Cost.d1mw);
      count p "callgrind.ll_miss" Callgrind.Cost.(t.ilmr + t.dlmr + t.dlmw))
    !cg;
  { machine = m; sigil; callgrind = !cg; trace = None }

let run_job p job =
  if not job.events then job.check p job (guest_run p job ())
  else begin
    let path = Filename.concat p.work (job.name ^ ".sgt") in
    let w = Tracefile.Writer.create ~options:job.options path in
    let sink = Tracefile.Writer.sink w in
    let sink = if p.mode = Traced then timed_sink p.sink_l sink else sink in
    Fun.protect
      ~finally:(fun () ->
        Tracefile.Writer.discard w;
        if Sys.file_exists path then Sys.remove path)
      (fun () ->
        let r = guest_run p job ~sink () in
        span p ("writer_close:" ^ job.name) (fun () ->
            Tracefile.Writer.close ~symbols:(Dbi.Machine.symbols r.machine)
              ~contexts:(Dbi.Machine.contexts r.machine) w);
        let bytes = (Unix.stat path).Unix.st_size in
        count p "trace_bytes" bytes;
        count p "tracefile.writer_entries" (Tracefile.Writer.entries w);
        count p "tracefile.writer_chunks" (Tracefile.Writer.chunks w);
        peak p "tracefile.writer_peak_buffer_bytes" (Tracefile.Writer.peak_buffer_bytes w);
        ("trace_entries", I (Tracefile.Writer.entries w))
        :: ("trace_bytes", I bytes)
        :: job.check p job { r with trace = Some path })
  end

(* Native and Sigil-only runs of the job's guest program (no Callgrind, no
   trace writer: events still flow, into a sink that drops them), for the
   allocation split between layers. *)
let baseline_job p job =
  let w0 = Gc.minor_words () in
  let native_s =
    match job.suite with
    | Some (w, scale) -> Driver.time_native w scale
    | None -> (Dbi.Runner.time_native job.program).Dbi.Runner.elapsed_s
  in
  let w1 = Gc.minor_words () in
  let sink = if job.events then Some (fun (_ : Sigil.Event_log.entry) -> ()) else None in
  let _ =
    Dbi.Runner.run
      ~tools:[ (fun m -> Sigil.Tool.tool (Sigil.Tool.create ~options:job.options ?event_sink:sink m)) ]
      job.program
  in
  let w2 = Gc.minor_words () in
  measure p "dbi.native_s" native_s;
  measure p "native_words" (w1 -. w0);
  measure p "sigil_only_words" (w2 -. w1)

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let md5 s = Digest.to_hex (Digest.string s)
let profile_md5 sigil = S (md5 (Sigil.Profile_io.to_string sigil))
let hex x = S (Printf.sprintf "%h" x)

let expect p job what ~got ~want =
  if got <> want then fail p "%s: %s is %d, generator expects %d" job.name what got want

let check_paired p job r =
  let cg = Option.get r.callgrind in
  let ranked =
    span p ("partition:" ^ job.name) (fun () ->
        Analysis.Partition.rank (Analysis.Partition.trim (Analysis.Cdfg.build ~callgrind:cg r.sigil)))
  in
  span p ("check:" ^ job.name) (fun () ->
      let t = Callgrind.Tool.total cg in
      let ranking =
        String.concat "\n"
          (List.map
             (fun (c : Analysis.Partition.candidate) ->
               Printf.sprintf "%s %h %h" c.path c.breakeven c.coverage)
             ranked)
      in
      Callgrind.Cost.
        [
          ("profile_md5", profile_md5 r.sigil);
          ("ir", I t.ir);
          ("dr", I t.dr);
          ("dw", I t.dw);
          ("i1mr", I t.i1mr);
          ("d1mr", I t.d1mr);
          ("d1mw", I t.d1mw);
          ("ilmr", I t.ilmr);
          ("dlmr", I t.dlmr);
          ("dlmw", I t.dlmw);
          ("partition_md5", S (md5 ranking));
        ])

let schedule_cores = 4

let check_events p job r =
  let path = Option.get r.trace in
  let decoded =
    span p ("decode:" ^ job.name) (fun () ->
        let rd = Tracefile.Reader.open_file path in
        let n = ref 0 in
        Tracefile.Reader.iter rd (fun _ -> incr n);
        Tracefile.Reader.close rd;
        !n)
  in
  count p "tracefile.reader_entries" decoded;
  let hwm0 = vmhwm_kb () in
  let cp, sched =
    span p ("analyse:" ^ job.name) (fun () ->
        let rd = Tracefile.Reader.open_file path in
        Fun.protect
          ~finally:(fun () -> Tracefile.Reader.close rd)
          (fun () ->
            let cp = Analysis.Critpath.analyze_stream (Tracefile.Reader.iter rd) in
            (cp, Analysis.Critpath.schedule cp ~cores:schedule_cores)))
  in
  measure p "analysis.critpath_rss_mb" (float_of_int (vmhwm_kb () - hwm0) /. 1024.0);
  count p "analysis.critpath_nodes" (Analysis.Critpath.node_count cp);
  span p ("check:" ^ job.name) (fun () ->
      [
        ("decoded_entries", I decoded);
        ("profile_md5", profile_md5 r.sigil);
        ("cp_serial", I (Analysis.Critpath.serial_length cp));
        ("cp_critical", I (Analysis.Critpath.critical_path_length cp));
        ("cp_nodes", I (Analysis.Critpath.node_count cp));
        ("makespan", I sched.Analysis.Critpath.makespan);
      ])

let reuse_report p job r =
  span p ("report:" ^ job.name) (fun () ->
      let b = Analysis.Reuse_report.byte_breakdown r.sigil in
      let top = Analysis.Reuse_report.top_reusers r.sigil in
      let rows =
        List.map
          (fun (row : Analysis.Reuse_report.fn_row) ->
            Printf.sprintf "%s %d %h %d" row.label row.reuse_reads row.avg_lifetime row.unique_bytes)
          top
      in
      Analysis.Reuse_report.
        [
          ("reuse_zero", hex b.zero);
          ("reuse_1_9", hex b.one_to_nine);
          ("reuse_over_9", hex b.over_nine);
          ("reuse_elements", I b.elements);
          ("top_reusers_md5", S (md5 (String.concat "\n" rows)));
        ])

let check_vips p job r =
  let report = reuse_report p job r in
  ("profile_md5", span p ("check:" ^ job.name) (fun () -> profile_md5 r.sigil)) :: report

let check_machine p job r (e : Synth.expected) =
  let c = Dbi.Machine.counters r.machine in
  expect p job "retired instructions" ~got:(Dbi.Machine.now r.machine) ~want:e.instr;
  expect p job "bytes read" ~got:c.Dbi.Machine.read_bytes ~want:e.read_bytes;
  expect p job "bytes written" ~got:c.Dbi.Machine.written_bytes ~want:e.written_bytes

let check_synth_reuse g e p job r =
  let report = reuse_report p job r in
  span p ("check:" ^ job.name) (fun () ->
      check_machine p job r e;
      let snap = Sigil.Profile_io.snapshot_of_tool r.sigil in
      let written = Array.make (Array.length g.Synth.stages) 0 in
      List.iter
        (fun (s : Sigil.Profile_io.ctx_stats) ->
          Array.iteri
            (fun i _ ->
              if Sigil.Profile_io.fn_name snap s.fn = Synth.producer i then
                written.(i) <- written.(i) + s.written)
            written)
        (Sigil.Profile_io.contexts snap);
      Array.iteri
        (fun i got -> expect p job (Synth.producer i ^ " bytes written") ~got ~want:e.stage_written.(i))
        written;
      if Sigil.Tool.shadow_evictions r.sigil = 0 then
        fail p "%s: the shadow limit never evicted (working set %d B)" job.name
          (Synth.working_set_bytes g);
      let shape =
        Array.to_list
          (Array.map
             (fun (s : Synth.stage) ->
               S (Printf.sprintf "buf=%d fanout=%d distance=%d rounds=%d" s.buf_bytes s.fanout s.distance s.rounds))
             g.Synth.stages)
      in
      ("stages", L shape) :: ("instr", I e.instr) :: ("profile_md5", profile_md5 r.sigil) :: report)

let check_synth_line e p job r =
  span p ("check:" ^ job.name) (fun () ->
      check_machine p job r e;
      let ls = Option.get (Sigil.Tool.line_shadow r.sigil) in
      let tel = Telemetry.of_samples (Sigil.Line_shadow.telemetry ls) in
      expect p job "lines" ~got:(Sigil.Line_shadow.lines ls) ~want:e.lines;
      expect p job "line accesses" ~got:(Telemetry.get_int tel "line.accesses") ~want:e.line_accesses;
      let b = Sigil.Line_shadow.bins ls in
      let got = Sigil.Line_shadow.[| b.under_10; b.under_100; b.under_1000; b.under_10000; b.over_10000 |] in
      Array.iteri (fun i want -> expect p job (Printf.sprintf "line bin %d" i) ~got:got.(i) ~want) e.line_bins;
      [ ("lines", I e.lines); ("line_bins", L (Array.to_list (Array.map (fun n -> I n) got))) ])

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let find name =
  match Workloads.Suite.find name with Ok w -> w | Error msg -> failwith msg

let default = Sigil.Options.default

(* The paper's Fig 4-7 configuration: Sigil on Callgrind, byte mode, dedup
   under the memory limit. *)
let paper_paired () =
  List.map
    (fun (w : Workloads.Workload.t) ->
      let options =
        if w.name = "dedup" then Sigil.Options.with_max_chunks default 300 else default
      in
      suite_job ~with_callgrind:true ~options ~check:check_paired Workloads.Scale.Simmedium w)
    Workloads.Suite.parsec

(* The Fig 13 pipeline: events streamed to disk, reread, analysed. *)
let events_critpath () =
  List.map
    (fun name ->
      suite_job ~events:true ~options:(Sigil.Options.with_events default) ~check:check_events
        Workloads.Scale.Simlarge (find name))
    [ "canneal"; "streamcluster"; "blackscholes" ]

let reuse_synth seed =
  let g = Synth.make ~seed in
  let e = Synth.expected g in
  let synth name options check =
    { name; program = Synth.run g; suite = None; options; with_callgrind = false; events = false; check }
  in
  [
    synth "synth-reuse"
      (Sigil.Options.with_max_chunks (Sigil.Options.with_reuse default) Synth.max_chunks)
      (check_synth_reuse g e);
    synth "synth-line" (Sigil.Options.with_line_size default 64) (check_synth_line e);
    suite_job ~options:(Sigil.Options.with_reuse default) ~check:check_vips Workloads.Scale.Simmedium
      (find "vips");
  ]

let jobs_of workload seed =
  match workload with
  | "paper-paired" -> paper_paired ()
  | "events-critpath" -> events_critpath ()
  | "reuse-synth" -> reuse_synth seed
  | other -> failwith ("unknown workload " ^ other)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let span_json p pass_start (s : span) =
  let dur = s.stop - s.start in
  let children =
    List.fold_left (fun acc (c : span) -> if c.parent = s.id then acc + (c.stop - c.start) else acc) 0 p.spans
  in
  let agg = List.fold_left (fun acc (_, ns, _) -> acc + ns) 0 s.layers in
  let secs ns = F (float_of_int ns /. 1e9) in
  O
    [
      ("id", I s.id);
      ("parent", I s.parent);
      ("name", S s.name);
      ("start_s", secs (s.start - pass_start));
      ("dur_s", secs dur);
      ("self_s", secs (dur - children - agg));
      ( "layers",
        L
          (List.map
             (fun (name, ns, calls) -> O [ ("name", S name); ("self_s", secs ns); ("calls", I calls) ])
             s.layers) );
    ]

let () =
  let start = clock_ns () in
  let workload = ref "" and seed = ref 1 and mode = ref "plain" and work = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper-paired | events-critpath | reuse-synth");
      ("--seed", Arg.Set_int seed, "N input seed (reuse-synth's generator)");
      ("--mode", Arg.Set_string mode, "MODE plain | traced | baseline | setup");
      ("--work", Arg.Set_string work, "DIR where trace files are written");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "layerbench --workload NAME [--seed N] [--mode MODE] [--work DIR]";
  let mode_name = !mode in
  let mode =
    match mode_name with
    | "plain" -> Plain
    | "traced" -> Traced
    | "baseline" -> Baseline
    | "setup" -> Setup
    | m -> failwith ("unknown mode " ^ m)
  in
  let layer () = { ns = 0; calls = 0 } in
  let p =
    {
      mode;
      work = !work;
      callgrind_l = layer ();
      sigil_l = layer ();
      sink_l = layer ();
      spans = [];
      current = 0;
      next_id = 1;
      first_event = 0;
      guest_s = 0.0;
      guest_words = 0.0;
      jobs = 0;
      failed_jobs = 0;
      failures = [];
      outputs = [];
      stats_off = true;
      per_byte_off = true;
      counters = Hashtbl.create 32;
      measures = Hashtbl.create 8;
    }
  in
  let jobs = jobs_of !workload !seed in
  let w0 = Gc.minor_words () in
  (try
     List.iter
       (fun job ->
         p.jobs <- p.jobs + 1;
         let failures = List.length p.failures in
         (if mode = Baseline then baseline_job p job
          else
            match run_job p job with
            | out -> p.outputs <- (job.name, O out) :: p.outputs
            | exception Setup_done -> raise Setup_done
            | exception e -> fail p "%s: raised %s" job.name (Printexc.to_string e));
         if List.length p.failures > failures then p.failed_jobs <- p.failed_jobs + 1)
       jobs
   with Setup_done -> ());
  let minor_words = Gc.minor_words () -. w0 in
  let stop = clock_ns () in
  let sorted tbl f = List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []) in
  let layer_json name l = (name, O [ ("self_s", F (float_of_int l.ns /. 1e9)); ("calls", I l.calls) ]) in
  let result =
    O
      [
        ("workload", S !workload);
        ("mode", S mode_name);
        ("seed", I !seed);
        ("start_ns", I start);
        ("first_event_ns", I p.first_event);
        ("end_ns", I stop);
        ("guest_s", F p.guest_s);
        ("guest_words", F p.guest_words);
        ("minor_words", F minor_words);
        ("vmhwm_kb", I (vmhwm_kb ()));
        ("seeded", B (List.exists (fun j -> j.suite = None) jobs));
        ("jobs", I p.jobs);
        ("failed_jobs", I p.failed_jobs);
        ("failures", L (List.rev_map (fun f -> S f) p.failures));
        ("outputs", O (List.rev p.outputs));
        ("counters", O (sorted p.counters (fun n -> I n)));
        ("measures", O (sorted p.measures (fun x -> F x)));
        ( "preconditions",
          O
            [
              ("stats_off", B p.stats_off);
              ("per_byte_off", B p.per_byte_off);
              ("domains", I 1);
              ("pool", B false);
              ("ocaml_version", S Build_info.ocaml_version);
              ("flambda", B Build_info.flambda);
            ] );
        ( "layers",
          O
            [
              layer_json "callgrind" p.callgrind_l;
              layer_json "sigil" { ns = p.sigil_l.ns - p.sink_l.ns; calls = p.sigil_l.calls };
              layer_json "tracefile.writer" p.sink_l;
            ] );
        ("spans", L (List.rev_map (span_json p start) p.spans));
      ]
  in
  let b = Buffer.create 4096 in
  add_json b result;
  print_endline (Buffer.contents b)
