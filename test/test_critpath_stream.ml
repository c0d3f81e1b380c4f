(* Streaming critical-path analysis over binary traces must be
   bit-identical to the live one: for every PARSEC workload at simsmall,
   the workload runs inside analyze_stream with its entries teed into the
   binary writer and the spec test/critpath_spec.ml, then analyze_stream
   and summarize_stream over the binary reader must agree with the live
   analysis on every number, and the live analysis with the spec. *)

let check_workload (w : Workloads.Workload.t) =
  Helpers.with_temp (fun path ->
      let options = Sigil.Options.(with_events default) in
      let writer = Tracefile.Writer.create ~options path in
      let entries = ref 0 in
      let live = ref None in
      let spec =
        Critpath_spec.build (fun spec_emit ->
            live :=
              Some
                (Analysis.Critpath.analyze_stream (fun emit ->
                     let r =
                       Driver.run_workload ~options
                         ~event_sink:(fun e ->
                           incr entries;
                           Tracefile.Writer.add writer e;
                           spec_emit e;
                           emit e)
                         w Workloads.Scale.Simsmall
                     in
                     let m = r.Driver.machine in
                     Tracefile.Writer.close_names
                       (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m)
                          ~contexts:(Dbi.Machine.contexts m))
                       writer)))
      in
      let live = Option.get !live in
      let reader = Tracefile.Reader.open_file path in
      Fun.protect
        ~finally:(fun () -> Tracefile.Reader.close reader)
        (fun () ->
          let name = w.Workloads.Workload.name in
          Alcotest.(check int) (name ^ " entry count") !entries
            (Tracefile.Reader.entry_count reader);
          let strm = Analysis.Critpath.analyze_stream (Tracefile.Reader.iter reader) in
          Alcotest.(check int)
            (name ^ " serial")
            (Analysis.Critpath.serial_length live)
            (Analysis.Critpath.serial_length strm);
          Alcotest.(check int)
            (name ^ " critical")
            (Analysis.Critpath.critical_path_length live)
            (Analysis.Critpath.critical_path_length strm);
          Alcotest.(check int)
            (name ^ " nodes")
            (Analysis.Critpath.node_count live)
            (Analysis.Critpath.node_count strm);
          Alcotest.(check (float 0.0))
            (name ^ " parallelism")
            (Analysis.Critpath.parallelism live)
            (Analysis.Critpath.parallelism strm);
          Alcotest.(check (list int))
            (name ^ " critical path contexts")
            (Analysis.Critpath.critical_path_contexts live)
            (Analysis.Critpath.critical_path_contexts strm);
          let s = Analysis.Critpath.summarize_stream (Tracefile.Reader.iter reader) in
          Alcotest.(check int)
            (name ^ " summary serial")
            (Analysis.Critpath.serial_length live)
            s.Analysis.Critpath.s_serial;
          Alcotest.(check int)
            (name ^ " summary critical")
            (Analysis.Critpath.critical_path_length live)
            s.Analysis.Critpath.s_critical;
          Alcotest.(check int)
            (name ^ " summary fragments")
            (Analysis.Critpath.node_count live)
            s.Analysis.Critpath.s_fragments;
          match Critpath_check.agree ~cores:[ 1; 2; 4; 8 ] spec live s with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s against the spec: %s" name msg))

let tests =
  List.map
    (fun (w : Workloads.Workload.t) ->
      Alcotest.test_case w.Workloads.Workload.name `Slow (fun () -> check_workload w))
    Workloads.Suite.parsec

let suite = ("critpath_stream", [ ("parsec simsmall", tests) ])
