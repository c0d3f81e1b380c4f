(* The guest machine: PRNG, symbols, contexts, address space, machine,
   guest API, the atomic file writer, and recording and replay of the
   machine's event stream. *)
let () =
  Helpers.run
    [
      Test_prng.suite; Test_symbol.suite; Test_context.suite; Test_addr_space.suite;
      Test_machine.suite; Test_guest.suite; Test_atomic_file.suite; Test_trace.suite
    ]
