(* The Sigil shadow, profile and tool; the oracle is sigil_spec.ml, run here
   on the PARSEC clones and on the generated guests in cache_tests. *)
let () =
  Helpers.run
    [
      Test_shadow.suite; Test_shadow_range.suite; Test_shadow_runs.suite; Test_profile.suite;
      Test_reuse.suite; Test_line_shadow.suite; Test_event_log.suite; Test_sigil_tool.suite;
      Test_spec.suite
    ]
