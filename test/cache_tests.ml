(* The cache and branch models and the Callgrind tool, and the generated
   guests of guest_gen.ml (test_fuzz.ml): run under Callgrind and Sigil at
   once, each checked against its spec (cache_spec.ml, sigil_spec.ml and,
   over the emitted stream, critpath_spec.ml). *)
let () =
  Helpers.run
    [
      Test_cache.suite; Test_hierarchy.suite; Test_branch.suite; Test_callgrind.suite;
      Test_fuzz.suite; Test_fuzz.callgrind_suite
    ]
