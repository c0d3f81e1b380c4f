open Sigil

let sample_entries =
  [
    Event_log.Call { ctx = 1; call = 1 };
    Event_log.Comp { ctx = 1; call = 1; int_ops = 10; fp_ops = 2 };
    Event_log.Xfer
      { src_ctx = 0; src_call = 0; dst_ctx = 1; dst_call = 1; bytes = 64; unique_bytes = 32 };
    Event_log.Ret { ctx = 1; call = 1 };
  ]

let entry = Alcotest.testable (fun ppf e -> Fmt.string ppf (Event_log.entry_to_string e)) ( = )

let test_string_roundtrip () =
  List.iter
    (fun e ->
      let s = Event_log.entry_to_string e in
      Alcotest.check entry ("roundtrip " ^ s) e (Event_log.entry_of_string s))
    sample_entries

let test_malformed_rejected () =
  List.iter
    (fun line ->
      match Event_log.entry_of_string line with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted malformed %S" line)
    [ "Z 1 2"; "C 1"; "O 1 2 3"; "X 1 2 3"; "C one 1"; "" ]

let write_sample path = Event_log.write_file path (fun emit -> List.iter emit sample_entries)

let test_file_roundtrip () =
  let path = Filename.temp_file "sigil_events" ".txt" in
  write_sample path;
  let loaded = ref [] in
  Event_log.iter_file path (fun e -> loaded := e :: !loaded);
  Sys.remove path;
  Alcotest.(check (list entry)) "file roundtrip" sample_entries (List.rev !loaded)

(* A writer that dies midway publishes nothing: the previous file keeps
   its bytes and no .tmp is left behind. *)
let test_write_file_crash_safe () =
  let path = Filename.temp_file "sigil_events" ".txt" in
  write_sample path;
  let before = In_channel.with_open_bin path In_channel.input_all in
  (match
     Event_log.write_file path (fun emit ->
         emit (List.hd sample_entries);
         failwith "producer died")
   with
  | () -> Alcotest.fail "failing producer published"
  | exception Failure _ -> ());
  let after = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check bool) "no .tmp left" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path;
  Alcotest.(check string) "old file untouched" before after

let qcheck_entry_gen =
  let open QCheck.Gen in
  let small = int_range 0 1000 in
  oneof
    [
      map2 (fun ctx call -> Event_log.Call { ctx; call }) small small;
      map2 (fun ctx call -> Event_log.Ret { ctx; call }) small small;
      map2
        (fun (ctx, call) (int_ops, fp_ops) -> Event_log.Comp { ctx; call; int_ops; fp_ops })
        (pair small small) (pair small small);
      map3
        (fun (src_ctx, src_call) (dst_ctx, dst_call) (bytes, unique_bytes) ->
          Event_log.Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes; unique_bytes })
        (pair small small) (pair small small) (pair small small);
    ]

let qcheck_roundtrip =
  QCheck.Test.make ~name:"entry text roundtrip" ~count:500
    (QCheck.make ~print:Event_log.entry_to_string qcheck_entry_gen)
    (fun e -> Event_log.entry_of_string (Event_log.entry_to_string e) = e)

let () =
  Alcotest.run "event_log"
    [
      ( "event_log",
        [
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "crash-safe file writer" `Quick test_write_file_crash_safe;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
        ] );
    ]
