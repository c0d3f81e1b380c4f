(* Property-based fuzzing: random guest programs, run under every tool at
   once, must satisfy the conservation laws that tie the layers together. *)

type action =
  | Op of int
  | Fp of int
  | Read of int * int
  | Write of int * int
  | Memcpy of int * int * int (* dst, src, length *)
  | Syscall of (int * int) * (int * int) (* the span the kernel reads, the one it writes *)
  | Branch of bool
  | Call of prog

and prog = {
  name : string;
  actions : action list;
}

(* Straddle a chunk boundary (0x200000 is chunk-aligned, chunks are 4 KB)
   so random spans exercise the cross-chunk paths of the range engine. *)
let arena = 0x200000 - 16
let arena_size = 8192

(* The 4 KiB chunk boundaries inside the arena. *)
let boundaries = [ 0x200000; 0x201000 ]

(* Where a [len]-byte span starts: anywhere in the arena, or across or
   next to a chunk boundary. The boundary spans fall in a few dozen
   bytes, so the same bytes are read again by the same call, by another
   call and by another function. *)
let gen_addr len =
  let open QCheck.Gen in
  oneof
    [
      map (fun o -> arena + o) (int_range 0 (arena_size - len));
      map2 (fun b d -> b + d) (oneofl boundaries) (int_range (-len - 8) 8);
    ]

let gen_span max_len =
  QCheck.Gen.(int_range 1 max_len >>= fun len -> map (fun a -> (a, len)) (gen_addr len))

let gen_leaf_action =
  let open QCheck.Gen in
  frequency
    [
      (1, map (fun n -> Op (1 + n)) (int_range 0 50));
      (1, map (fun n -> Fp (1 + n)) (int_range 0 50));
      (4, map (fun (a, s) -> Read (a, s)) (gen_span 8));
      (3, map (fun (a, s) -> Write (a, s)) (gen_span 8));
      (1, gen_span 160 >>= fun (src, len) -> map (fun dst -> Memcpy (dst, src, len)) (gen_addr len));
      (1, map2 (fun r w -> Syscall (r, w)) (gen_span 160) (gen_span 160));
      (1, map (fun b -> Branch b) bool);
    ]

let gen_name = QCheck.Gen.map (fun i -> Printf.sprintf "fn%d" i) (QCheck.Gen.int_range 0 7)

(* Calls nest three deep. A callee is this function again (recursion) or
   any other, and is sometimes called twice in a row, so its second call
   re-reads what the first read. *)
let gen_prog =
  let open QCheck.Gen in
  let rec prog depth name =
    let callee = frequency [ (3, gen_name); (1, return name) ] >>= prog (depth - 1) in
    let action =
      if depth = 0 then map (fun a -> [ a ]) gen_leaf_action
      else
        frequency
          [
            (8, map (fun a -> [ a ]) gen_leaf_action);
            (1, map (fun p -> [ Call p ]) callee);
            (1, map (fun p -> [ Call p; Call p ]) callee);
          ]
    in
    map (fun actions -> { name; actions = List.concat actions }) (list_size (int_range 0 12) action)
  in
  gen_name >>= prog 3

let rec interp m prog =
  Dbi.Guest.call m prog.name (fun () ->
      List.iter
        (function
          | Op n -> Dbi.Guest.iop m n
          | Fp n -> Dbi.Guest.flop m n
          | Read (a, s) -> Dbi.Guest.read m a s
          | Write (a, s) -> Dbi.Guest.write m a s
          | Memcpy (dst, src, len) -> Dbi.Guest.memcpy m ~dst ~src len
          | Syscall (r, w) -> Dbi.Guest.syscall m "io" ~reads:[ r ] ~writes:[ w ]
          | Branch b -> Dbi.Guest.branch m b
          | Call p -> interp m p)
        prog.actions)

let rec print_prog p =
  Printf.sprintf "%s[%s]" p.name
    (String.concat ";"
       (List.map
          (function
            | Op n -> Printf.sprintf "i%d" n
            | Fp n -> Printf.sprintf "f%d" n
            | Read (a, s) -> Printf.sprintf "r%d+%d" (a - arena) s
            | Write (a, s) -> Printf.sprintf "w%d+%d" (a - arena) s
            | Memcpy (dst, src, len) -> Printf.sprintf "m%d<-%d+%d" (dst - arena) (src - arena) len
            | Syscall ((ra, rl), (wa, wl)) ->
              Printf.sprintf "s(r%d+%d,w%d+%d)" (ra - arena) rl (wa - arena) wl
            | Branch b -> if b then "b1" else "b0"
            | Call p -> print_prog p)
          p.actions))

(* An event sink that keeps the entries in [log], newest first. *)
let into log e = log := Sigil.Event_log.copy e :: !log

let run_all ?(event_sink = ignore) prog =
  let sigil = ref None and cg = ref None in
  let r =
    Dbi.Runner.run ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t =
              Sigil.Tool.create
                ~options:Sigil.Options.(with_events (with_reuse default))
                ~event_sink m
            in
            sigil := Some t;
            Sigil.Tool.tool t);
          (fun m ->
            let t = Callgrind.Tool.create m in
            cg := Some t;
            Callgrind.Tool.tool t);
        ]
      (fun m -> interp m prog)
  in
  (Option.get !sigil, Option.get !cg, r.Dbi.Runner.machine)

let arbitrary = QCheck.make ~print:print_prog gen_prog

let prop_conservation =
  QCheck.Test.make ~name:"ops/bytes conserved across all layers" ~count:120 arbitrary
    (fun prog ->
      let sigil, cg, m = run_all prog in
      let c = Dbi.Machine.counters m in
      let profile = Sigil.Tool.profile sigil in
      let sigil_ops =
        List.fold_left
          (fun acc ctx ->
            let s = Sigil.Profile.stats profile ctx in
            acc + s.Sigil.Profile.int_ops + s.Sigil.Profile.fp_ops)
          0 (Sigil.Profile.contexts profile)
      in
      let _, read_total = Sigil.Profile.totals profile in
      let written =
        List.fold_left
          (fun acc ctx -> acc + (Sigil.Profile.stats profile ctx).Sigil.Profile.written)
          0 (Sigil.Profile.contexts profile)
      in
      let total_cost = Callgrind.Tool.total cg in
      sigil_ops = c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops
      && read_total = c.Dbi.Machine.read_bytes
      && written = c.Dbi.Machine.written_bytes
      && total_cost.Callgrind.Cost.ir
         = c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops + c.Dbi.Machine.reads
           + c.Dbi.Machine.writes + c.Dbi.Machine.branches
      && total_cost.Callgrind.Cost.bc = c.Dbi.Machine.branches)

let prop_unique_bounded =
  QCheck.Test.make ~name:"unique <= total everywhere" ~count:120 arbitrary (fun prog ->
      let sigil, _, _ = run_all prog in
      let profile = Sigil.Tool.profile sigil in
      let unique, total = Sigil.Profile.totals profile in
      unique <= total
      && List.for_all
           (fun (e : Sigil.Profile.edge) ->
             e.Sigil.Profile.unique_bytes <= e.Sigil.Profile.bytes && e.Sigil.Profile.bytes > 0)
           (Sigil.Profile.edges profile))

let prop_event_log_consistent =
  QCheck.Test.make ~name:"event log balanced and critpath bounded" ~count:120 arbitrary
    (fun prog ->
      let log = ref [] in
      let _, _, m = run_all ~event_sink:(into log) prog in
      let entries = List.rev !log in
      let calls, rets =
        List.fold_left
          (fun (c, r) -> function
            | Sigil.Event_log.Call _ -> (c + 1, r)
            | Sigil.Event_log.Ret _ -> (c, r + 1)
            | Sigil.Event_log.Comp _ | Sigil.Event_log.Xfer _ -> (c, r))
          (0, 0) entries
      in
      let cp = Analysis.Critpath.analyze_stream (fun f -> List.iter f entries) in
      let c = Dbi.Machine.counters m in
      calls = rets
      && calls = c.Dbi.Machine.calls
      && Analysis.Critpath.serial_length cp = c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops
      && Analysis.Critpath.critical_path_length cp <= Analysis.Critpath.serial_length cp
      && Analysis.Critpath.parallelism cp >= 1.0 -. 1e-9)

let prop_cdfg_consistent =
  QCheck.Test.make ~name:"cdfg inclusive costs and breakevens sane" ~count:80 arbitrary
    (fun prog ->
      let sigil, cg, m = run_all prog in
      let cdfg = Analysis.Cdfg.build ~callgrind:cg sigil in
      let c = Dbi.Machine.counters m in
      let root = Analysis.Cdfg.root cdfg in
      root.Analysis.Cdfg.incl_ops = c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops
      && List.for_all
           (fun ctx ->
             let n = Analysis.Cdfg.node cdfg ctx in
             n.Analysis.Cdfg.incl_input_unique <= n.Analysis.Cdfg.incl_input_total
             && n.Analysis.Cdfg.incl_output_unique <= n.Analysis.Cdfg.incl_output_total
             && n.Analysis.Cdfg.self_ops <= n.Analysis.Cdfg.incl_ops
             &&
             let s = Analysis.Partition.breakeven cdfg ctx in
             s >= 1.0 || s = infinity)
           (Analysis.Cdfg.contexts cdfg))

let prop_reuse_consistent =
  QCheck.Test.make ~name:"reuse version bins count every touched element" ~count:80 arbitrary
    (fun prog ->
      let sigil, _, _ = run_all prog in
      let bins = Sigil.Reuse.version_bins (Sigil.Tool.reuse sigil) in
      let elements = bins.Sigil.Reuse.zero + bins.Sigil.Reuse.low + bins.Sigil.Reuse.high in
      (* every distinct byte a program touches ends as at least one version,
         and versions cannot outnumber total byte-accesses *)
      let c = Dbi.Machine.counters (Sigil.Tool.machine sigil) in
      let touched_bytes = c.Dbi.Machine.read_bytes + c.Dbi.Machine.written_bytes in
      elements <= max 1 touched_bytes)

let profiles_equal a b =
  let ctxs p = Sigil.Profile.contexts p in
  let stats_of p ctx =
    let s = Sigil.Profile.stats p ctx in
    Sigil.Profile.
      ( s.input_unique, s.input_nonunique, s.local_unique, s.local_nonunique, s.written,
        s.int_ops, s.fp_ops, s.calls )
  in
  let edges p =
    List.sort compare
      (List.map
         (fun (e : Sigil.Profile.edge) ->
           (e.Sigil.Profile.src, e.Sigil.Profile.dst, e.Sigil.Profile.bytes,
            e.Sigil.Profile.unique_bytes))
         (Sigil.Profile.edges p))
  in
  ctxs a = ctxs b
  && List.for_all (fun ctx -> stats_of a ctx = stats_of b ctx) (ctxs a)
  && edges a = edges b

(* Differential check of the range-batched shadow engine against the
   per-byte reference: the Table I spec of sigil_spec.ml, which shares no
   code with the engine. Every generated program runs in byte, reuse and
   events modes; the tool and the spec must agree on every context's
   stats and every edge, the eviction count, and, where the mode has
   them, the reuse statistics and the event stream. *)
let modes =
  Sigil.Options.
    [
      ("byte", default);
      ("reuse", with_reuse default);
      ("events", with_events default);
      ("events+reuse", with_events (with_reuse default));
    ]

let matches_spec ?max_chunks prog =
  List.for_all
    (fun (mode, options) ->
      let options =
        match max_chunks with
        | Some n -> Sigil.Options.with_max_chunks options n
        | None -> options
      in
      match Sigil_spec.check ~call_overhead:0 ~options (fun m -> interp m prog) with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_reportf "%s mode: %s" mode e)
    modes

let prop_range_matches_per_byte =
  QCheck.Test.make ~name:"range engine bit-identical to per-byte reference" ~count:120
    arbitrary matches_spec

(* The arena spans three chunks: one or two live chunks evict on most
   programs, often in the middle of a range. *)
let prop_range_matches_per_byte_limited =
  QCheck.Test.make ~name:"range engine matches per-byte under FIFO eviction" ~count:80
    QCheck.(pair arbitrary (1 -- 2))
    (fun (prog, max_chunks) -> matches_spec ~max_chunks prog)

(* Single-tool runner for the line-shadow and telemetry properties. *)
let run_one ?log options prog =
  let sigil = ref None in
  let _ =
    Dbi.Runner.run ~call_overhead:0
      ~tools:
        [
          (fun m ->
            let t = Sigil.Tool.create ~options ?event_sink:(Option.map into log) m in
            sigil := Some t;
            Sigil.Tool.tool t);
        ]
      (fun m -> interp m prog)
  in
  Option.get !sigil

(* Reference model for the line shadow: per-line access counts computed
   straight off the action list, independent of any shadow machinery. *)
let rec line_counts tbl line_bits prog =
  let access a s =
    for line = a lsr line_bits to (a + s - 1) lsr line_bits do
      Hashtbl.replace tbl line (1 + Option.value ~default:0 (Hashtbl.find_opt tbl line))
    done
  in
  (* memcpy and the kernel access their spans a word at a time *)
  let rec words a len =
    if len > 0 then begin
      access a (min 8 len);
      words (a + 8) (len - 8)
    end
  in
  List.iter
    (function
      | Read (a, s) | Write (a, s) -> access a s
      | Memcpy (dst, src, len) ->
        words src len;
        words dst len
      | Syscall ((ra, rl), (wa, wl)) ->
        words ra rl;
        words wa wl
      | Call p -> line_counts tbl line_bits p
      | Op _ | Fp _ | Branch _ -> ())
    prog.actions

let line_shadow_matches_reference line_size line_bits prog =
  let t = run_one (Sigil.Options.with_line_size Sigil.Options.default line_size) prog in
  let line = Option.get (Sigil.Tool.line_shadow t) in
  let tbl = Hashtbl.create 256 in
  line_counts tbl line_bits prog;
  let c = Dbi.Machine.counters (Sigil.Tool.machine t) in
  let s = Telemetry.of_samples (Sigil.Tool.telemetry t) in
  Sigil.Line_shadow.lines line = Hashtbl.length tbl
  && List.for_all
       (fun (r : Sigil.Line_shadow.line_record) ->
         Hashtbl.find_opt tbl r.Sigil.Line_shadow.line_addr
         = Some r.Sigil.Line_shadow.accesses)
       (Sigil.Line_shadow.records line)
  && Telemetry.get_int s "line.touches" = c.Dbi.Machine.reads + c.Dbi.Machine.writes
  && Telemetry.get_int s "line.accesses"
     = Hashtbl.fold (fun _ n acc -> acc + n) tbl 0

(* At 1-byte lines the line shadow IS a byte shadow: its records must agree
   exactly with the per-byte access counts of the action trace. *)
let prop_line_shadow_per_byte =
  QCheck.Test.make ~name:"line shadow at 1B lines matches per-byte reference" ~count:100
    arbitrary (fun prog -> line_shadow_matches_reference 1 0 prog)

(* Aligned accesses: every access covers exactly one 8-byte line, so the
   line-granularity and byte-granularity views must coincide line for
   line (the arena base is 16-byte aligned). *)
let gen_aligned_prog =
  let open QCheck.Gen in
  let gen_leaf_action =
    oneof
      [
        map (fun n -> Op (1 + n)) (int_range 0 50);
        map (fun a -> Read (arena + (8 * a), 8)) (int_range 0 ((arena_size / 8) - 1));
        map (fun a -> Write (arena + (8 * a), 8)) (int_range 0 ((arena_size / 8) - 1));
      ]
  in
  fix
    (fun self depth ->
      let action =
        if depth = 0 then gen_leaf_action
        else frequency [ (4, gen_leaf_action); (1, map (fun p -> Call p) (self (depth - 1))) ]
      in
      map2 (fun name actions -> { name; actions }) gen_name (list_size (int_range 0 12) action))
    2

let prop_line_shadow_aligned =
  QCheck.Test.make ~name:"line shadow on aligned accesses matches reference" ~count:100
    (QCheck.make ~print:print_prog gen_aligned_prog)
    (fun prog -> line_shadow_matches_reference 8 3 prog)

(* The FIFO memory limit's accounting, read back through telemetry: chunks
   are conserved (allocated - evicted = live) and the cap really binds. *)
let prop_memory_limit_accounting =
  QCheck.Test.make ~name:"FIFO memory limit conserves chunk accounting" ~count:80
    QCheck.(pair arbitrary (1 -- 3))
    (fun (prog, cap) ->
      let t = run_one (Sigil.Options.with_max_chunks Sigil.Options.default cap) prog in
      let s = Telemetry.of_samples (Sigil.Tool.telemetry t) in
      let g = Telemetry.get_int s in
      let c = Dbi.Machine.counters (Sigil.Tool.machine t) in
      g "shadow.chunks_live" = g "shadow.chunks_allocated" - g "shadow.evictions"
      && g "shadow.chunks_live" <= cap
      && g "shadow.chunks_peak" <= cap
      && g "shadow.evictions" = Sigil.Tool.shadow_evictions t
      && g "shadow.range_reads" = c.Dbi.Machine.reads
      && g "shadow.range_read_bytes" = c.Dbi.Machine.read_bytes)

(* Options.collect_stats gates only end-of-run snapshot assembly; the run
   itself — profile, reuse bins, event log, machine counters — must be
   bit-identical with it on and off. *)
let prop_stats_flag_inert =
  QCheck.Test.make ~name:"stats collection never perturbs the run" ~count:60 arbitrary
    (fun prog ->
      let base = Sigil.Options.(with_events (with_reuse default)) in
      let log_off = ref [] and log_on = ref [] in
      let off = run_one ~log:log_off base prog in
      let on_ = run_one ~log:log_on (Sigil.Options.with_stats base) prog in
      profiles_equal (Sigil.Tool.profile off) (Sigil.Tool.profile on_)
      && Sigil.Reuse.version_bins (Sigil.Tool.reuse off)
         = Sigil.Reuse.version_bins (Sigil.Tool.reuse on_)
      && !log_off = !log_on
      && Dbi.Machine.counters (Sigil.Tool.machine off)
         = Dbi.Machine.counters (Sigil.Tool.machine on_)
      && Telemetry.equal
           (Telemetry.of_samples (Sigil.Tool.telemetry off))
           (Telemetry.of_samples (Sigil.Tool.telemetry on_)))

let prop_trace_replay_identical =
  QCheck.Test.make ~name:"trace replay reproduces the profile" ~count:40 arbitrary (fun prog ->
      let path = Filename.temp_file "fuzz_trace" ".rec" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let original =
            Tracefile.Recording.record path (fun m ->
                (* record runs with default overhead; fine, it is recorded *)
                interp m prog)
          in
          let replayed_tool = ref None in
          let r = Tracefile.Reader.open_file path in
          let _ =
            Fun.protect
              ~finally:(fun () -> Tracefile.Reader.close r)
              (fun () ->
                Tracefile.Recording.replay
                  ~tools:
                    [
                      (fun m ->
                        let t = Sigil.Tool.create m in
                        replayed_tool := Some t;
                        Sigil.Tool.tool t);
                    ]
                  r)
          in
          let replayed = Sigil.Tool.machine (Option.get !replayed_tool) in
          Dbi.Machine.now original = Dbi.Machine.now replayed
          && Dbi.Context.count (Dbi.Machine.contexts original)
             = Dbi.Context.count (Dbi.Machine.contexts replayed)))

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_conservation;
            prop_unique_bounded;
            prop_event_log_consistent;
            prop_cdfg_consistent;
            prop_reuse_consistent;
            prop_range_matches_per_byte;
            prop_range_matches_per_byte_limited;
            prop_line_shadow_per_byte;
            prop_line_shadow_aligned;
            prop_memory_limit_accounting;
            prop_stats_flag_inert;
            prop_trace_replay_identical;
          ] );
    ]
