(* The tool against the Table I spec (sigil_spec.ml) on real workloads, and
   the last-reader heuristic stated as a check. The generated guests are
   in test_fuzz.ml. *)

let small = Workloads.Scale.Simsmall

let workload name options () =
  match Workloads.Suite.find name with
  | Error e -> Alcotest.fail e
  | Ok w -> (
    match Sigil_spec.check ~options (fun m -> w.Workloads.Workload.run m small) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" name e)

(* Table I keeps one last reader per byte. When f's reads of a byte are
   interleaved with g's, f is never the last reader when it reads again,
   so every one of its re-reads in the same call counts as unique: the
   overcount DESIGN.md §5 and `bench --only readerset` measure against an
   exact reader set. The spec states the same rule, and the engine agrees. *)
let test_alternating_readers () =
  let rounds = 5 in
  let guest m =
    Dbi.Guest.call m "main" (fun () ->
        let a = Dbi.Guest.alloc m 64 in
        Dbi.Guest.call m "w" (fun () -> Dbi.Guest.write m a 8);
        Dbi.Guest.call m "f" (fun () ->
            for _ = 1 to rounds do
              Dbi.Guest.read m a 8;
              Dbi.Guest.call m "g" (fun () -> Dbi.Guest.read m a 8)
            done))
  in
  List.iter
    (fun options ->
      let tool =
        match Sigil_spec.check ~call_overhead:0 ~options guest with
        | Ok tool -> tool
        | Error e -> Alcotest.fail e
      in
      let snap = Sigil.Profile_io.snapshot_of_tool tool in
      let input name =
        List.fold_left
          (fun (u, n) (s : Sigil.Profile_io.ctx_stats) ->
            if Sigil.Profile_io.name snap s.ctx = name then
              (u + s.input_unique, n + s.input_nonunique)
            else (u, n))
          (0, 0) (Sigil.Profile_io.contexts snap)
      in
      Alcotest.(check (pair int int)) "f: every read unique" (8 * rounds, 0) (input "f");
      Alcotest.(check (pair int int)) "g: every read unique" (8 * rounds, 0) (input "g"))
    Sigil.Options.[ default; with_reuse default; with_events default ]

(* Work at the root on both sides of main, and one function called twice
   back to back. The generated guests run inside one top-level call and
   the workloads inside main, so this is the only guest whose root work
   follows a return: the reads, ops, syscall and call after main belong
   to the root's call 0, not to main's call that returned last. *)
let root_work m =
  let a = Dbi.Guest.alloc m 64 in
  Dbi.Guest.iop m 3;
  Dbi.Guest.write m a 16;
  Dbi.Guest.call m "main" (fun () ->
      Dbi.Guest.read m a 8;
      for i = 0 to 1 do
        Dbi.Guest.call m "f" (fun () ->
            Dbi.Guest.read m (a + 8) 8;
            Dbi.Guest.flop m 2;
            Dbi.Guest.write m (a + 16 + (8 * i)) 8)
      done);
  Dbi.Guest.read m (a + 16) 8;
  Dbi.Guest.read m (a + 24) 8;
  Dbi.Guest.iop m 4;
  Dbi.Guest.syscall m "write" ~reads:[ (a + 16, 16) ] ~writes:[ (a + 32, 8) ];
  Dbi.Guest.call m "g" (fun () -> Dbi.Guest.read m (a + 32) 8)

let test_root_work () =
  List.iter
    (fun call_overhead ->
      List.iter
        (fun options ->
          match Sigil_spec.check ~call_overhead ~options root_work with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "call_overhead %d: %s" call_overhead e)
        Sigil.Options.
          [ default; with_reuse default; with_events default; with_events (with_reuse default) ])
    [ 0; 10 ]

let () =
  let open Sigil.Options in
  Alcotest.run "spec"
    [
      ( "spec",
        [
          Alcotest.test_case "canneal events" `Quick (workload "canneal" (with_events default));
          Alcotest.test_case "dedup max_chunks 100 events+reuse" `Quick
            (workload "dedup" (with_events (with_reuse (with_max_chunks default 100))));
          Alcotest.test_case "vips reuse" `Quick (workload "vips" (with_reuse default));
          Alcotest.test_case "alternating readers all unique" `Quick test_alternating_readers;
          Alcotest.test_case "root work after main" `Quick test_root_work;
        ] );
    ]
