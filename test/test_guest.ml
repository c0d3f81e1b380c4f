let fresh () = Dbi.Machine.create ~call_overhead:0 ()

exception Boom

let test_call_returns_value () =
  let m = fresh () in
  let v = Dbi.Guest.call m "main" (fun () -> 42) in
  Alcotest.(check int) "value through" 42 v;
  Dbi.Machine.finish m

let test_call_unwinds_on_exception () =
  let m = fresh () in
  (try Dbi.Guest.call m "main" (fun () -> raise Boom) with Boom -> ());
  Alcotest.(check int) "stack unwound" 0 (Dbi.Machine.stack_depth m);
  Dbi.Machine.finish m

let test_with_buffer_frees () =
  let m = fresh () in
  Dbi.Guest.call m "main" (fun () ->
      Dbi.Guest.with_buffer m 64 (fun buf -> Dbi.Guest.write m buf 8));
  Alcotest.(check int) "no live blocks" 0 (Dbi.Addr_space.live_blocks (Dbi.Machine.space m))

let test_with_buffer_frees_on_exception () =
  let m = fresh () in
  (try
     Dbi.Guest.call m "main" (fun () ->
         Dbi.Guest.with_buffer m 64 (fun _ -> raise Boom))
   with Boom -> ());
  Alcotest.(check int) "freed on raise" 0 (Dbi.Addr_space.live_blocks (Dbi.Machine.space m))

let test_with_frame_balanced () =
  let m = fresh () in
  Dbi.Guest.call m "main" (fun () ->
      Dbi.Guest.with_frame m 32 (fun fr -> Dbi.Guest.write m fr 8));
  (* a second frame starts at the same place the first one did *)
  let f1 = Dbi.Addr_space.push_frame (Dbi.Machine.space m) 32 in
  Dbi.Addr_space.pop_frame (Dbi.Machine.space m);
  let f2 = Dbi.Guest.with_frame m 32 (fun fr -> fr) in
  Alcotest.(check int) "frames balanced" f1 f2

let test_read_range_chunking () =
  let m = fresh () in
  let _ = Dbi.Machine.enter m "main" in
  Dbi.Guest.read_range m 0x200000 20;
  Dbi.Machine.leave m;
  let c = Dbi.Machine.counters m in
  Alcotest.(check int) "3 accesses for 20 bytes" 3 c.Dbi.Machine.reads;
  Alcotest.(check int) "20 bytes total" 20 c.Dbi.Machine.read_bytes

let test_memcpy_moves_bytes () =
  let m = fresh () in
  let _ = Dbi.Machine.enter m "main" in
  Dbi.Guest.memcpy m ~dst:0x300000 ~src:0x200000 24;
  Dbi.Machine.leave m;
  let c = Dbi.Machine.counters m in
  Alcotest.(check int) "read bytes" 24 c.Dbi.Machine.read_bytes;
  Alcotest.(check int) "written bytes" 24 c.Dbi.Machine.written_bytes;
  Alcotest.(check int) "one op per word" 3 c.Dbi.Machine.int_ops

let test_branch_and_ops () =
  let m = fresh () in
  let _ = Dbi.Machine.enter m "main" in
  Dbi.Guest.branch m true;
  Dbi.Guest.iop m 2;
  Dbi.Guest.flop m 3;
  Dbi.Machine.leave m;
  let c = Dbi.Machine.counters m in
  Alcotest.(check int) "branch" 1 c.Dbi.Machine.branches;
  Alcotest.(check int) "iops" 2 c.Dbi.Machine.int_ops;
  Alcotest.(check int) "flops" 3 c.Dbi.Machine.fp_ops

let suite =
  ( "guest",
    [
      ( "guest",
        [
          Alcotest.test_case "call returns value" `Quick test_call_returns_value;
          Alcotest.test_case "call unwinds on exception" `Quick test_call_unwinds_on_exception;
          Alcotest.test_case "with_buffer frees" `Quick test_with_buffer_frees;
          Alcotest.test_case "with_buffer frees on exception" `Quick
            test_with_buffer_frees_on_exception;
          Alcotest.test_case "with_frame balanced" `Quick test_with_frame_balanced;
          Alcotest.test_case "read_range chunking" `Quick test_read_range_chunking;
          Alcotest.test_case "memcpy moves bytes" `Quick test_memcpy_moves_bytes;
          Alcotest.test_case "branch and ops" `Quick test_branch_and_ops;
        ] );
    ] )
