open Sigil

(* A read of [bytes] bytes, all unique or all re-used. *)
let record_read p ~producer ~consumer ~unique ~bytes =
  Profile.record_run p ~producer ~consumer ~bytes ~unique_bytes:(if unique then bytes else 0)

let test_local_vs_input () =
  let p = Profile.create () in
  record_read p ~producer:1 ~consumer:1 ~unique:true ~bytes:4;
  record_read p ~producer:2 ~consumer:1 ~unique:true ~bytes:8;
  record_read p ~producer:2 ~consumer:1 ~unique:false ~bytes:2;
  let s = Profile.stats p 1 in
  Alcotest.(check int) "local unique" 4 s.Profile.local_unique;
  Alcotest.(check int) "input unique" 8 s.Profile.input_unique;
  Alcotest.(check int) "input nonunique" 2 s.Profile.input_nonunique;
  Alcotest.(check int) "local nonunique" 0 s.Profile.local_nonunique

(* Contexts 1-3 under the root, running functions 0-2. *)
let four_contexts =
  { Dbi.Names.empty with symbols = [| "f"; "g"; "h" |]; parent = [| -1; 0; 0; 0 |];
    fn = [| -1; 0; 1; 2 |] }

let test_edges_aggregate () =
  let p = Profile.create () in
  record_read p ~producer:2 ~consumer:1 ~unique:true ~bytes:8;
  record_read p ~producer:2 ~consumer:1 ~unique:false ~bytes:8;
  record_read p ~producer:3 ~consumer:1 ~unique:true ~bytes:4;
  (match Profile.edges p with
  | edges ->
    Alcotest.(check int) "two edges" 2 (List.length edges);
    let e21 = List.find (fun (e : Profile.edge) -> e.Profile.src = 2) edges in
    Alcotest.(check int) "total bytes" 16 e21.Profile.bytes;
    Alcotest.(check int) "unique bytes" 8 e21.Profile.unique_bytes);
  (* a snapshot sums each context's edges: contexts 1-3 under the root *)
  let context ctx =
    let s = Profile.stats p ctx in
    {
      Profile_io.ctx;
      parent = -1;
      fn = -1;
      calls = s.Profile.calls;
      input_unique = s.Profile.input_unique;
      input_nonunique = s.Profile.input_nonunique;
      local_unique = s.Profile.local_unique;
      local_nonunique = s.Profile.local_nonunique;
      written = s.Profile.written;
      int_ops = s.Profile.int_ops;
      fp_ops = s.Profile.fp_ops;
    }
  in
  let snap =
    Profile_io.make ~names:four_contexts ~contexts:(List.init 4 context)
      ~edges:
        (List.map
           (fun (e : Profile.edge) ->
             let bytes = e.bytes and unique_bytes = e.unique_bytes in
             { Profile_io.src = e.src; dst = e.dst; bytes; unique_bytes })
           (Profile.edges p))
      ~costs:None ~reuse:None
  in
  Alcotest.(check (pair int int)) "input bytes of 1" (20, 12) (Profile_io.input_bytes snap 1);
  Alcotest.(check (pair int int)) "output bytes of 2" (16, 8) (Profile_io.output_bytes snap 2);
  Alcotest.(check (pair int int)) "output bytes of 3" (4, 4) (Profile_io.output_bytes snap 3);
  Alcotest.(check (pair int int)) "no input to 2" (0, 0) (Profile_io.input_bytes snap 2)

(* [make] takes each context's parent and function from the table, so a
   context the table lacks is an error, as a gap in the ids is. *)
let test_make_needs_the_table () =
  let context ctx =
    { Profile_io.ctx; parent = -1; fn = -1; calls = 0; input_unique = 0; input_nonunique = 0;
      local_unique = 0; local_nonunique = 0; written = 0; int_ops = 0; fp_ops = 0 }
  in
  let snap = Profile_io.make ~names:four_contexts ~contexts:(List.init 4 context) ~edges:[]
      ~costs:None ~reuse:None in
  Alcotest.(check (list int)) "parents from the table" [ -1; 0; 0; 0 ]
    (List.map (fun (s : Profile_io.ctx_stats) -> s.parent) (Profile_io.contexts snap));
  Alcotest.(check string) "path from the table" "h" (Profile_io.path snap 3);
  Alcotest.check_raises "context outside the table"
    (Invalid_argument "Profile_io.make: context 4 is not in the names table") (fun () ->
      ignore
        (Profile_io.make ~names:four_contexts ~contexts:(List.init 5 context) ~edges:[]
           ~costs:None ~reuse:None))

let test_local_reads_make_no_edges () =
  let p = Profile.create () in
  record_read p ~producer:1 ~consumer:1 ~unique:true ~bytes:100;
  Alcotest.(check int) "no edges" 0 (List.length (Profile.edges p))

let test_ops_calls_writes () =
  let p = Profile.create () in
  Profile.record_ops p ~ctx:4 Dbi.Event.Int_op 7;
  Profile.record_ops p ~ctx:4 Dbi.Event.Fp_op 3;
  Profile.record_call p ~ctx:4;
  Profile.record_call p ~ctx:4;
  Profile.record_write p ~ctx:4 ~bytes:12;
  let s = Profile.stats p 4 in
  Alcotest.(check int) "int ops" 7 s.Profile.int_ops;
  Alcotest.(check int) "fp ops" 3 s.Profile.fp_ops;
  Alcotest.(check int) "calls" 2 s.Profile.calls;
  Alcotest.(check int) "written" 12 s.Profile.written

let test_contexts_listing () =
  let p = Profile.create () in
  Profile.record_call p ~ctx:5;
  Profile.record_call p ~ctx:2;
  Alcotest.(check (list int)) "ascending" [ 2; 5 ] (Profile.contexts p)

let test_totals () =
  let p = Profile.create () in
  record_read p ~producer:1 ~consumer:2 ~unique:true ~bytes:10;
  record_read p ~producer:2 ~consumer:2 ~unique:false ~bytes:5;
  Alcotest.(check (pair int int)) "unique, total" (10, 15) (Profile.totals p)

let test_edge_cache_consistency () =
  (* alternate between two edges; the one-entry cache must not misroute *)
  let p = Profile.create () in
  for _ = 1 to 10 do
    record_read p ~producer:1 ~consumer:3 ~unique:true ~bytes:1;
    record_read p ~producer:2 ~consumer:3 ~unique:true ~bytes:1
  done;
  let by_src src =
    List.find (fun (e : Profile.edge) -> e.Profile.src = src) (Profile.edges p)
  in
  Alcotest.(check int) "edge 1->3" 10 (by_src 1).Profile.bytes;
  Alcotest.(check int) "edge 2->3" 10 (by_src 2).Profile.bytes

let qcheck_unique_bounded =
  QCheck.Test.make ~name:"edge unique <= total" ~count:200
    QCheck.(list (triple (int_range 0 5) (int_range 0 5) bool))
    (fun reads ->
      let p = Profile.create () in
      List.iter
        (fun (producer, consumer, unique) ->
          record_read p ~producer ~consumer ~unique ~bytes:3)
        reads;
      List.for_all
        (fun (e : Profile.edge) -> e.Profile.unique_bytes <= e.Profile.bytes)
        (Profile.edges p))

let qcheck_totals_conserved =
  QCheck.Test.make ~name:"stats sum equals totals" ~count:200
    QCheck.(list (triple (int_range 0 5) (int_range 0 5) bool))
    (fun reads ->
      let p = Profile.create () in
      List.iter
        (fun (producer, consumer, unique) ->
          record_read p ~producer ~consumer ~unique ~bytes:2)
        reads;
      let unique, total = Profile.totals p in
      unique <= total && total = 2 * List.length reads)

let suite =
  ( "profile",
    [
      ( "profile",
        [
          Alcotest.test_case "local vs input" `Quick test_local_vs_input;
          Alcotest.test_case "edges aggregate" `Quick test_edges_aggregate;
          Alcotest.test_case "local reads make no edges" `Quick test_local_reads_make_no_edges;
          Alcotest.test_case "ops calls writes" `Quick test_ops_calls_writes;
          Alcotest.test_case "contexts listing" `Quick test_contexts_listing;
          Alcotest.test_case "totals" `Quick test_totals;
          Alcotest.test_case "edge cache consistency" `Quick test_edge_cache_consistency;
          QCheck_alcotest.to_alcotest qcheck_unique_bounded;
          QCheck_alcotest.to_alcotest qcheck_totals_conserved;
          Alcotest.test_case "make needs the table" `Quick test_make_needs_the_table;
        ] );
    ] )
