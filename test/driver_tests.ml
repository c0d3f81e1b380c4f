(* The workloads, the driver and its pool, telemetry and the suite runs. *)
let () =
  Helpers.run
    [
      Test_workloads.suite; Test_workload_signatures.suite; Test_integration.suite;
      Test_pool.suite; Test_suite_determinism.suite; Test_driver_faults.suite;
      Test_telemetry.suite
    ]
