(* Dbi.Atomic_file.write, behind every artifact writer: one that returns
   publishes the whole file; one that raises leaves an existing file
   intact and no .tmp behind. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let with_temp f =
  let path = Filename.temp_file "sigil_atomic" ".out" in
  let remove p = if Sys.file_exists p then Sys.remove p in
  Fun.protect ~finally:(fun () -> List.iter remove [ path; path ^ ".tmp" ]) (fun () -> f path)

let test_publishes () =
  with_temp (fun path ->
      let r = Dbi.Atomic_file.write path (fun oc -> output_string oc "new"; 42) in
      Alcotest.(check int) "result" 42 r;
      Alcotest.(check string) "contents" "new" (read path);
      Alcotest.(check bool) "no .tmp left" false (Sys.file_exists (path ^ ".tmp")))

let test_raising_writer () =
  with_temp (fun path ->
      Dbi.Atomic_file.write path (fun oc -> output_string oc "old");
      (match
         Dbi.Atomic_file.write path (fun oc ->
             output_string oc (String.make 100_000 'x');
             failwith "writer died")
       with
      | () -> Alcotest.fail "a raising writer published"
      | exception Failure msg -> Alcotest.(check string) "exception" "writer died" msg);
      Alcotest.(check string) "old file intact" "old" (read path);
      Alcotest.(check bool) "no .tmp left" false (Sys.file_exists (path ^ ".tmp")))

let () =
  Alcotest.run "atomic_file"
    [
      ( "atomic_file",
        [
          Alcotest.test_case "publishes" `Quick test_publishes;
          Alcotest.test_case "raising writer" `Quick test_raising_writer;
        ] );
    ]
