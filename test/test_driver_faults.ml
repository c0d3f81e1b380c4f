(* Fault-isolated batch execution: a crashing workload is captured as a
   structured [Run_error] while every other job completes bit-identically
   to a clean run; the wall-clock and instruction-budget guards surface as
   their own causes. *)

let small = Workloads.Scale.Simsmall

let crasher =
  {
    Workloads.Workload.name = "crasher";
    suite = Workloads.Workload.Parsec;
    description = "always raises mid-run (fault-injection test workload)";
    run = (fun m _ ->
      (* do a little real work first so the crash lands mid-stream, with
         live calls on the machine's stack *)
      let _ = Dbi.Machine.enter m "doomed" in
      Dbi.Machine.op m Dbi.Event.Int_op 100;
      failwith "injected crash");
  }

let parsec_jobs () = List.map (fun w -> Driver.job w small) Workloads.Suite.parsec

let profile_of run = Sigil.Profile_io.to_string (Driver.sigil run)

let fingerprint profiles = Digest.to_hex (Digest.string (String.concat "\n" profiles))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* 13 workloads + one always-crashing one -> exactly one Run_error, and the
   13 survivors' profiles are bit-identical to a clean run's (fingerprint
   unchanged). *)
let test_isolate_completes_surviving_jobs () =
  let clean =
    List.map
      (function
        | Ok r -> profile_of r
        | Error e -> Alcotest.failf "clean run failed: %s" (Driver.Run_error.to_string e))
      (Driver.run_many (parsec_jobs ()))
  in
  let with_crasher () =
    let jobs = parsec_jobs () in
    let mid = List.length jobs / 2 in
    List.concat
      [
        List.filteri (fun i _ -> i < mid) jobs;
        [ Driver.job crasher small ];
        List.filteri (fun i _ -> i >= mid) jobs;
      ]
  in
  let check_results results =
    let oks, errors =
      List.partition_map
        (function Ok r -> Left (profile_of r) | Error e -> Right e)
        results
    in
    Alcotest.(check int) "exactly one Run_error" 1 (List.length errors);
    let e = List.hd errors in
    Alcotest.(check string) "error names the workload" "crasher" e.Driver.Run_error.workload;
    (match e.Driver.Run_error.cause with
    | Driver.Run_error.Raised msg ->
      Alcotest.(check bool) "cause carries the original message" true
        (contains ~sub:"injected crash" msg)
    | _ -> Alcotest.fail "expected a Raised cause");
    Alcotest.(check int) "all other workloads completed" (List.length clean) (List.length oks);
    Alcotest.(check string) "survivors bit-identical to clean run" (fingerprint clean)
      (fingerprint oks)
  in
  (* sequential *)
  check_results (Driver.run_many (with_crasher ()));
  (* and fanned over a pool: the crash must not poison other domains *)
  check_results
    (Pool.with_pool ~domains:3 (fun p ->
         Driver.run_many ~pool:p (with_crasher ())))

let test_instruction_budget_guard () =
  let options = Sigil.Options.with_instr_budget Sigil.Options.default 1000 in
  (* direct run: the guard exception escapes *)
  (match
     Driver.run_workload ~options (List.hd Workloads.Suite.parsec) small
   with
  | _ -> Alcotest.fail "budget guard never tripped"
  | exception Dbi.Machine.Budget_exhausted { budget; now } ->
    Alcotest.(check int) "budget echoed" 1000 budget;
    Alcotest.(check bool) "tripped just past the budget" true (now > 1000));
  (* in a batch it becomes a structured cause *)
  match
    Driver.run_many
      [ Driver.job ~options (List.hd Workloads.Suite.parsec) small ]
  with
  | [ Error { Driver.Run_error.cause = Driver.Run_error.Budget_exhausted { budget; _ }; _ } ] ->
    Alcotest.(check int) "cause carries the budget" 1000 budget
  | _ -> Alcotest.fail "expected one Budget_exhausted Run_error"

let test_timeout_guard () =
  (* a zero-second limit trips on the first probe, deterministically *)
  let options = Sigil.Options.with_timeout Sigil.Options.default 0.0 in
  match
    Driver.run_many
      [ Driver.job ~options (List.hd Workloads.Suite.parsec) small ]
  with
  | [ Error { Driver.Run_error.cause = Driver.Run_error.Timeout { limit_s; _ }; _ } ] ->
    Alcotest.(check (float 0.0)) "cause carries the limit" 0.0 limit_s
  | [ Error e ] -> Alcotest.failf "wrong cause: %s" (Driver.Run_error.to_string e)
  | _ -> Alcotest.fail "expected one Timeout Run_error"

let test_run_error_rendering () =
  let e =
    {
      Driver.Run_error.workload = "dedup";
      scale = small;
      cause = Driver.Run_error.Budget_exhausted { budget = 10; now = 11 };
      backtrace = "";
    }
  in
  Alcotest.(check string) "one-line rendering"
    "dedup@simsmall: instruction budget 10 exhausted (clock 11)"
    (Driver.Run_error.to_string e)

(* A run that trips its guard while streaming --events is reported as one
   FAILED line with exit 3, and its trace writer is discarded: neither the
   trace nor its .tmp is left behind. *)
let test_cli_failed_run_publishes_nothing () =
  let path = Filename.temp_file "driver_faults" ".tf" in
  Sys.remove path;
  let leftovers = [ path; path ^ ".tmp" ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> if Sys.file_exists p then Sys.remove p) leftovers)
    (fun () ->
      let code, lines =
        Cli.stderr "sigil_run"
          ("blackscholes --instr-budget 1000 --events " ^ Filename.quote path)
      in
      Alcotest.(check int) "exit code" 3 code;
      Alcotest.(check (list string)) "one FAILED line"
        [
          "sigil_run: FAILED blackscholes@simsmall: instruction budget 1000 exhausted (clock \
           1001)";
        ]
        lines;
      List.iter
        (fun p -> Alcotest.(check bool) ("no " ^ Filename.basename p) false (Sys.file_exists p))
        leftovers)

(* Numeric flags the libraries would reject are usage errors at parse
   time (cmdliner's exit 124), not uncaught Invalid_argument (exit 125). *)
let test_cli_numeric_flags_checked () =
  List.iter
    (fun (name, args) ->
      let code, _ = Cli.stderr name args in
      Alcotest.(check int) (name ^ " " ^ args) 124 code)
    [
      ("sigil_reuse", "blackscholes --line-size 3");
      ("sigil_run", "blackscholes --max-chunks 0");
      ("sigil_run", "blackscholes --events unused.tf --chunk-bytes 0");
      ("sigil_run", "blackscholes --events unused.tf --checkpoint-every 0");
      ("sigil_run", "blackscholes --instr-budget 0");
      ("sigil_run", "blackscholes --timeout=-1");
      ("sigil_critpath", "blackscholes --cores 0");
      ("sigil_trace", "repair src.tf dst.tf --chunk-bytes 0");
      ("sigil_partition", "canneal --bus=-2");
      ("sigil_partition", "canneal --bus=0");
      ("sigil_partition", "canneal --max-coverage=7");
      ("sigil_partition", "canneal --max-coverage=-0.1");
      ("sigil_run", "blackscholes --limit=-3");
      ("sigil_run", "canneal blackscholes --domains=-4");
      ("sigil_run", "canneal blackscholes -j 0");
    ]

(* A --histogram naming a function the workload never ran is an error
   like an unknown workload: one stderr line and exit 2. So is one asked
   of line mode, which keeps no histograms. *)
let test_cli_unknown_histogram_function () =
  let code, lines = Cli.stderr "sigil_reuse" "canneal --histogram nosuchfn" in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check (list string))
    "one stderr line" [ "error: no function \"nosuchfn\" ran in canneal" ] lines;
  let code, lines = Cli.stderr "sigil_reuse" "blackscholes --line-size 64 --histogram nosuch" in
  Alcotest.(check int) "line mode: exit code" 2 code;
  Alcotest.(check (list string))
    "line mode: one stderr line" [ "error: --histogram needs byte mode, not --line-size" ] lines;
  let code, lines = Cli.stderr "sigil_reuse" "canneal --histogram annealer_thread::Run" in
  Alcotest.(check int) "a known function exits 0" 0 code;
  Alcotest.(check (list string)) "and prints no error" [] lines

(* The bench harness rejects a bad argument with one "bench: ..." line
   and exit 2 before any workload runs: a leftover flag is never ignored. *)
let test_cli_bench_arguments_rejected () =
  let usage = "(usage: main.exe [--only SECTION,...] [--domains N] [--scale S])" in
  List.iter
    (fun (args, expected) ->
      let code, lines = Cli.stderr ~dir:"bench" "main" args in
      Alcotest.(check int) ("exit code of " ^ args) 2 code;
      Alcotest.(check (list string)) ("one stderr line for " ^ args) [ expected ] lines)
    [
      ("--bogus --only alloc", "bench: unknown argument \"--bogus\" " ^ usage);
      ("--only alloc --stats-out F", "bench: unknown argument \"--stats-out\" " ^ usage);
      ( "--only alloc,micro",
        "bench: unknown section \"micro\" (have: fig4, fig7, fig8, fig12, fig13, memlimit, \
         readerset, range, granularity, events, alloc, suite)" );
      ("--only", "bench: --only needs a value");
      ("--domains 0 --only alloc", "bench: --domains: bad count \"0\"");
      ("--domains two", "bench: --domains: bad count \"two\"");
      ( "--only alloc --scale huge",
        "bench: --scale: unknown scale \"huge\" (expected simsmall|simmedium|simlarge)" );
    ]

(* --progress in plain mode (stderr is a file here): one started and one
   done line per workload, whose counts are the run's own, and stdout
   byte-identical to a run without it. *)
let test_progress_plain () =
  let args = "canneal dedup -j 2" in
  let code, out, err = Cli.run "sigil_run" (args ^ " --progress") in
  Alcotest.(check int) "exit code" 0 code;
  let _, plain_out, _ = Cli.run "sigil_run" args in
  Alcotest.(check string) "stdout as without --progress" plain_out out;
  let out = Array.of_list (String.split_on_char '\n' out) in
  (* the run's own counts, from its report on stdout *)
  let counts w =
    let i = ref 0 in
    while out.(!i) <> Printf.sprintf "== sigil: %s (simsmall) ==" w do
      incr i
    done;
    ( Scanf.sscanf out.(!i + 1) "guest instructions: %d" Fun.id,
      Scanf.sscanf out.(!i + 2) "shadow footprint: %_[^,], evictions: %d" Fun.id )
  in
  let started, finished =
    List.partition_map
      (fun line ->
        match Scanf.sscanf_opt line "[%_d/2] %[^(](simsmall) started%!" Fun.id with
        | Some w -> Left w
        | None -> (
          match
            Scanf.sscanf_opt line "[%_d/2] %[^(](simsmall) done (%[0-9.]Mi, %d evictions)%!"
              (fun w mi ev -> (w, mi, ev))
          with
          | Some d -> Right d
          | None -> Alcotest.failf "unexpected stderr line %S" line))
      err
  in
  Alcotest.(check (list string)) "one started line per workload" [ "canneal"; "dedup" ]
    (List.sort compare started);
  Alcotest.(check (list string)) "one done line per workload" [ "canneal"; "dedup" ]
    (List.sort compare (List.map (fun (w, _, _) -> w) finished));
  List.iter
    (fun (w, mi, ev) ->
      let instr, evictions = counts w in
      Alcotest.(check string) (w ^ " instructions") (Printf.sprintf "%.1f" (float instr /. 1e6)) mi;
      Alcotest.(check int) (w ^ " evictions") evictions ev)
    finished

let test_progress_failed_run () =
  let code, lines = Cli.stderr "sigil_run" "blackscholes --instr-budget 1000 --progress" in
  Alcotest.(check int) "exit code" 3 code;
  Alcotest.(check (list string)) "started, one FAILED progress line, the cause"
    [
      "[1/1] blackscholes(simsmall) started";
      "[1/1] blackscholes(simsmall) FAILED (0.0Mi, 0 evictions)";
      "sigil_run: FAILED blackscholes@simsmall: instruction budget 1000 exhausted (clock 1001)";
    ]
    lines

let () =
  Alcotest.run "driver_faults"
    [
      ( "isolate",
        [
          Alcotest.test_case "crasher isolated, 13 survivors bit-identical" `Quick
            test_isolate_completes_surviving_jobs;
        ] );
      ( "guards",
        [
          Alcotest.test_case "instruction budget" `Quick test_instruction_budget_guard;
          Alcotest.test_case "wall-clock timeout" `Quick test_timeout_guard;
          Alcotest.test_case "Run_error.to_string" `Quick test_run_error_rendering;
        ] );
      ( "cli",
        [
          Alcotest.test_case "failed run publishes no trace" `Quick
            test_cli_failed_run_publishes_nothing;
          Alcotest.test_case "numeric flags checked at parse time" `Quick
            test_cli_numeric_flags_checked;
          Alcotest.test_case "bench arguments rejected" `Quick test_cli_bench_arguments_rejected;
          Alcotest.test_case "unknown histogram function" `Quick
            test_cli_unknown_histogram_function;
          Alcotest.test_case "progress lines match the runs" `Quick test_progress_plain;
          Alcotest.test_case "progress on a failed run" `Quick test_progress_failed_run;
        ] );
    ]
