(* Every workload must run cleanly, deterministically, and scale. *)

let run_native ?(scale = Workloads.Scale.Simsmall) (w : Workloads.Workload.t) =
  let r = Dbi.Runner.time_native (fun m -> w.Workloads.Workload.run m scale) in
  r.Dbi.Runner.machine

let test_all_run_cleanly () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let m = run_native w in
      let c = Dbi.Machine.counters m in
      Alcotest.(check bool)
        (w.Workloads.Workload.name ^ " does work")
        true
        (c.Dbi.Machine.int_ops + c.Dbi.Machine.fp_ops > 10_000
        && c.Dbi.Machine.reads > 100 && c.Dbi.Machine.writes > 100
        && c.Dbi.Machine.calls > 10);
      Alcotest.(check int)
        (w.Workloads.Workload.name ^ " balanced stack")
        0 (Dbi.Machine.stack_depth m))
    Workloads.Suite.all

let test_deterministic () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let a = Dbi.Machine.counters (run_native w) in
      let b = Dbi.Machine.counters (run_native w) in
      Alcotest.(check bool) (w.Workloads.Workload.name ^ " deterministic") true (a = b))
    Workloads.Suite.all

let test_scales_grow () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let small = Dbi.Machine.now (run_native ~scale:Workloads.Scale.Simsmall w) in
      let medium = Dbi.Machine.now (run_native ~scale:Workloads.Scale.Simmedium w) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: simmedium (%d) > simsmall (%d)" w.Workloads.Workload.name medium
           small)
        true
        (medium > small * 2))
    Workloads.Suite.all

let has_function m name =
  let found = ref false in
  Dbi.Symbol.iter (Dbi.Machine.symbols m) (fun _ n -> if n = name then found := true);
  !found

let test_signature_functions_present () =
  (* the functions the paper's tables and case studies name must exist in
     the corresponding workload's symbol table *)
  let expectations =
    [
      ("blackscholes", [ "strtof"; "_ieee754_exp"; "_ieee754_expf"; "_ieee754_logf"; "__mpn_mul"; "dl_addr" ]);
      ("bodytrack", [ "FlexImage::Set"; "_ieee754_log"; "ImageMeasurements::ImageErrorInside"; "std::vector"; "DMatrix" ]);
      ("canneal", [ "__mul"; "memchr"; "netlist::swap_locations"; "memmove"; "std::string::compare"; "__mpn_rshift"; "__mpn_lshift"; "isnan"; "std::locale::locale" ]);
      ("dedup", [ "sha1_block_data_order"; "_tr_flush_block"; "write_file"; "adler32"; "hashtable_search" ]);
      ("fluidanimate", [ "ComputeForces" ]);
      ("streamcluster", [ "drand48_iterate"; "nrand48_r"; "lrand48"; "pkmedian"; "localSearch"; "streamCluster" ]);
      ("vips", [ "conv_gen"; "imb_XYZ2Lab"; "affine_gen" ]);
      ("libquantum", [ "quantum_toffoli"; "quantum_cnot"; "quantum_sigma_x" ]);
    ]
  in
  List.iter
    (fun (name, fns) ->
      let w =
        match Workloads.Suite.find name with
        | Ok w -> w
        | Error e -> Alcotest.fail e
      in
      let m = run_native w in
      List.iter
        (fun fn ->
          Alcotest.(check bool) (Printf.sprintf "%s has %s" name fn) true (has_function m fn))
        fns)
    expectations

let test_sha1_two_contexts () =
  (* dedup's Table II rows: sha1 reached through two calling contexts *)
  let w = Helpers.find_workload "dedup" in
  let m = run_native w in
  let contexts = Dbi.Machine.contexts m in
  let symbols = Dbi.Machine.symbols m in
  let count = ref 0 in
  Dbi.Context.iter contexts (fun ctx ->
      if
        ctx <> Dbi.Context.root
        && Dbi.Symbol.name symbols (Dbi.Context.fn contexts ctx) = "sha1_block_data_order"
      then incr count);
  Alcotest.(check int) "two sha1 contexts" 2 !count

let test_registry () =
  Alcotest.(check int) "13 PARSEC workloads" 13 (List.length Workloads.Suite.parsec);
  Alcotest.(check int) "14 total" 14 (List.length Workloads.Suite.all);
  (match Workloads.Suite.find "vips" with
  | Ok w -> Alcotest.(check string) "found vips" "vips" w.Workloads.Workload.name
  | Error e -> Alcotest.fail e);
  (match Workloads.Suite.find "doom" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "found nonexistent workload");
  let names = Workloads.Suite.names () in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_scale_parsing () =
  (match Workloads.Scale.of_string "simmedium" with
  | Ok s -> Alcotest.(check int) "factor 4" 4 (Workloads.Scale.factor s)
  | Error e -> Alcotest.fail e);
  match Workloads.Scale.of_string "huge" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad scale"

let suite =
  ( "workloads",
    [
      ( "workloads",
        [
          Alcotest.test_case "all run cleanly" `Quick test_all_run_cleanly;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "scales grow" `Slow test_scales_grow;
          Alcotest.test_case "signature functions present" `Quick
            test_signature_functions_present;
          Alcotest.test_case "sha1 two contexts" `Quick test_sha1_two_contexts;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "scale parsing" `Quick test_scale_parsing;
        ] );
    ] )
