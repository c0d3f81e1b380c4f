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

let suite =
  ( "driver_faults",
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
    ] )
