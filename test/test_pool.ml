(* The domain pool behind Driver.run_many: sizing, submission-order
   results, exception propagation out of worker domains, nesting, and
   shutdown behavior. *)

let test_sizing () =
  Pool.with_pool ~domains:3 (fun p -> Alcotest.(check int) "size 3" 3 (Pool.size p));
  Pool.with_pool ~domains:1 (fun p -> Alcotest.(check int) "size 1" 1 (Pool.size p));
  Alcotest.check_raises "zero domains rejected"
    (Invalid_argument "Pool.create: domains must be >= 1") (fun () ->
      ignore (Pool.create ~domains:0 ()));
  let r = Pool.recommended () in
  Alcotest.(check bool) "recommended in [1, 8]" true (r >= 1 && r <= 8)

let test_map_ordering () =
  let items = List.init 100 (fun i -> i) in
  let expected = List.map (fun i -> i * i) items in
  Pool.with_pool ~domains:4 (fun p ->
      Alcotest.(check (list int)) "results in submission order" expected
        (Pool.map p (fun i -> i * i) items));
  Pool.with_pool ~domains:1 (fun p ->
      Alcotest.(check (list int)) "sequential pool agrees" expected
        (Pool.map p (fun i -> i * i) items))

let test_map_empty_and_run () =
  Pool.with_pool ~domains:2 (fun p ->
      Alcotest.(check (list int)) "empty map" [] (Pool.map p (fun i -> i) []);
      Alcotest.(check (list string)) "run keeps thunk order" [ "a"; "b"; "c" ]
        (Pool.run p [ (fun () -> "a"); (fun () -> "b"); (fun () -> "c") ]))

let test_exception_propagation () =
  Pool.with_pool ~domains:3 (fun p ->
      Alcotest.check_raises "first failing index wins" (Failure "boom 4") (fun () ->
          ignore
            (Pool.map p
               (fun i -> if i >= 4 then failwith (Printf.sprintf "boom %d" i) else i)
               (List.init 32 (fun i -> i)))))

let test_pool_survives_failed_batch () =
  Pool.with_pool ~domains:2 (fun p ->
      (try ignore (Pool.map p (fun () -> failwith "once") [ () ]) with Failure _ -> ());
      Alcotest.(check (list int)) "pool still works after a failed batch" [ 1; 2; 3 ]
        (Pool.map p (fun i -> i) [ 1; 2; 3 ]))

let test_nested_map () =
  Pool.with_pool ~domains:2 (fun p ->
      let table =
        Pool.map p (fun row -> Pool.map p (fun col -> (row * 10) + col) [ 0; 1; 2 ]) [ 1; 2; 3 ]
      in
      Alcotest.(check (list (list int)))
        "nested maps complete and stay ordered"
        [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ] ]
        table)

(* The no-deadlock contract: a raising task never prevents the rest of its
   batch from running. *)
let test_failed_batch_runs_every_task () =
  let n = 64 in
  let ran = Array.make n false in
  Pool.with_pool ~domains:3 (fun p ->
      (try
         ignore
           (Pool.map p
              (fun i ->
                ran.(i) <- true;
                if i mod 5 = 0 then failwith (Printf.sprintf "boom %d" i))
              (List.init n (fun i -> i)))
       with Failure _ -> ());
      Alcotest.(check bool) "every task ran despite the failures" true
        (Array.for_all Fun.id ran))

let test_failed_nested_map_no_deadlock () =
  (* a raising task inside a nested batch must neither hang the outer map
     nor stop sibling rows: the outer map re-raises, and the pool stays
     usable *)
  Pool.with_pool ~domains:2 (fun p ->
      let rows_done = Array.make 4 false in
      Alcotest.check_raises "inner failure propagates out of the outer map"
        (Failure "inner boom") (fun () ->
          ignore
            (Pool.map p
               (fun row ->
                 let r =
                   Pool.map p
                     (fun col ->
                       if row = 1 && col = 1 then failwith "inner boom";
                       (row * 10) + col)
                     [ 0; 1; 2 ]
                 in
                 rows_done.(row) <- true;
                 r)
               [ 0; 1; 2; 3 ]));
      Alcotest.(check bool) "sibling rows still completed" true
        (rows_done.(0) && rows_done.(2) && rows_done.(3));
      Alcotest.(check (list int)) "pool usable after nested failure" [ 2; 4 ]
        (Pool.map p (fun i -> 2 * i) [ 1; 2 ]))

let test_with_pool_reraises_after_shutdown () =
  (* with_pool must re-raise the body's exception only after joining its
     workers; observable as: the exception escapes and no pool state leaks
     (a fresh pool still works) *)
  Alcotest.check_raises "body exception re-raised" (Failure "body") (fun () ->
      Pool.with_pool ~domains:3 (fun p ->
          ignore (Pool.map p (fun i -> i) [ 1; 2; 3 ]);
          failwith "body"));
  Pool.with_pool ~domains:3 (fun p ->
      Alcotest.(check (list int)) "fresh pool after aborted with_pool" [ 1; 2; 3 ]
        (Pool.map p Fun.id [ 1; 2; 3 ]))

let test_task_accounting () =
  Pool.with_pool ~domains:3 (fun p ->
      Alcotest.(check int) "fresh pool: no tasks" 0 (Pool.tasks p);
      Alcotest.(check int) "fresh pool: no batches" 0 (Pool.batches p);
      ignore (Pool.map p (fun i -> i) (List.init 100 (fun i -> i)));
      ignore (Pool.run p [ (fun () -> ()); (fun () -> ()) ]);
      Alcotest.(check int) "tasks accumulate across batches" 102 (Pool.tasks p);
      Alcotest.(check int) "one batch per map/run" 2 (Pool.batches p);
      let counts = Pool.task_counts p in
      Alcotest.(check int) "one slot per domain" 3 (Array.length counts);
      Alcotest.(check int) "per-domain counts partition the tasks" 102
        (Array.fold_left ( + ) 0 counts));
  (* a 1-domain pool spawns no workers: the caller drains everything *)
  Pool.with_pool ~domains:1 (fun p ->
      ignore (Pool.map p (fun i -> i) [ 1; 2; 3 ]);
      Alcotest.(check (array int)) "caller slot owns every task" [| 3 |] (Pool.task_counts p))

let test_telemetry_wall_only () =
  Pool.with_pool ~domains:2 (fun p ->
      ignore (Pool.map p (fun i -> i) [ 1; 2; 3; 4 ]);
      let samples = Pool.telemetry p in
      Alcotest.(check bool) "every pool metric is wall-clock" true
        (List.for_all (fun s -> s.Telemetry.domain = Telemetry.Wall) samples);
      let s = Telemetry.of_samples samples in
      Alcotest.(check int) "pool.tasks" 4 (Telemetry.get_int s "pool.tasks");
      Alcotest.(check int) "pool.batches" 1 (Telemetry.get_int s "pool.batches");
      Alcotest.(check int) "pool.domains" 2 (Telemetry.get_int s "pool.domains");
      Alcotest.(check int) "per-domain samples partition the tasks" 4
        (Telemetry.get_int s "pool.tasks_domain0" + Telemetry.get_int s "pool.tasks_domain1"))

(* The accounting on the task hot path is two fetch-and-adds and a DLS
   read — it must not allocate. Measured as the per-task minor-heap slope
   of a batch of no-op tasks on a caller-only pool (1 domain, so every
   task and its accounting run on the domain whose counter we read); the
   bound leaves room for the map plumbing (per-task closure, queue cell,
   result cell) but would trip on any boxing added to the accounting. *)
let test_accounting_does_not_allocate () =
  Pool.with_pool ~domains:1 (fun p ->
      let small = List.init 256 (fun i -> i) in
      let large = List.init 1024 (fun i -> i) in
      let f _ = () in
      ignore (Pool.map p f small);
      (* warm-up: DLS slot, queue growth *)
      ignore (Pool.map p f large);
      let words items =
        let before = Gc.minor_words () in
        ignore (Pool.map p f items);
        Gc.minor_words () -. before
      in
      let per_task = (words large -. words small) /. float_of_int (1024 - 256) in
      Alcotest.(check bool)
        (Printf.sprintf "per-task minor words %.1f <= 64" per_task)
        true (per_task <= 64.0))

let test_shutdown () =
  let p = Pool.create ~domains:2 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  Alcotest.check_raises "map after shutdown rejected"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map p (fun i -> i) [ 1 ]))

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "sizing" `Quick test_sizing;
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "empty map and run" `Quick test_map_empty_and_run;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "survives failed batch" `Quick test_pool_survives_failed_batch;
          Alcotest.test_case "failed batch runs every task" `Quick
            test_failed_batch_runs_every_task;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "failed nested map no deadlock" `Quick
            test_failed_nested_map_no_deadlock;
          Alcotest.test_case "with_pool re-raises after shutdown" `Quick
            test_with_pool_reraises_after_shutdown;
          Alcotest.test_case "task accounting" `Quick test_task_accounting;
          Alcotest.test_case "telemetry is wall-only" `Quick test_telemetry_wall_only;
          Alcotest.test_case "accounting does not allocate" `Quick
            test_accounting_does_not_allocate;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
        ] );
    ]
