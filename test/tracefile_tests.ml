(* The binary trace container: writer, reader, saved profiles, crash and
   fault handling. *)
let () =
  Helpers.run [ Test_tracefile.suite; Test_faultinject.suite; Test_profile_io.suite ]
