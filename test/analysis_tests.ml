(* The analyses and reports: CDFG, partitioning, critical path (its
   oracle is critpath_spec.ml), reuse report, flat and dot reports. *)
let () =
  Helpers.run
    [
      Test_cdfg.suite; Test_partition.suite; Test_critpath.suite; Test_dot.suite; Test_flat.suite;
      Test_reuse_report.suite; Test_critpath_oracle.suite; Test_critpath_stream.suite;
      Test_output_compare.suite
    ]
