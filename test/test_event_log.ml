(* The event log's text file is written only as the dump of a binary
   trace ([Tracefile.Convert.binary_to_text]). *)

open Sigil

let sample_entries =
  [
    Event_log.Call { ctx = 1; call = 1 };
    Event_log.Comp { ctx = 1; call = 1; int_ops = 10; fp_ops = 2 };
    Event_log.Xfer
      { src_ctx = 0; src_call = 0; dst_ctx = 1; dst_call = 1; bytes = 64; unique_bytes = 32 };
    Event_log.Ret { ctx = 1; call = 1 };
  ]

let with_temp ext f =
  let path = Filename.temp_file "sigil_events" ext in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_trace ~chunk_bytes entries path =
  let w = Tracefile.Writer.create ~chunk_bytes path in
  List.iter (Tracefile.Writer.add w) entries;
  Tracefile.Writer.close w

(* A writer that dies midway publishes nothing: dumping a trace whose
   third chunk fails its CRC raises, the previous file keeps its bytes
   and no .tmp is left behind. *)
let test_write_file_crash_safe () =
  with_temp ".tf" (fun tf ->
      with_temp ".txt" (fun txt ->
          write_trace ~chunk_bytes:64 sample_entries tf;
          ignore (Tracefile.Convert.binary_to_text tf txt : int);
          let before = In_channel.with_open_bin txt In_channel.input_all in
          write_trace ~chunk_bytes:128 (List.concat (List.init 200 (fun _ -> sample_entries))) tf;
          let r = Tracefile.Reader.open_file tf in
          let victim = List.nth (Tracefile.Reader.chunk_offsets r) 2 in
          Tracefile.Reader.close r;
          let data = Bytes.of_string (In_channel.with_open_bin tf In_channel.input_all) in
          (* one payload byte of that chunk: the file opens, the dump has
             written two chunks' lines when the third fails to decode *)
          let target = victim + 16 + 3 in
          Bytes.set data target (Char.chr (Char.code (Bytes.get data target) lxor 0xff));
          Out_channel.with_open_bin tf (fun oc -> Out_channel.output_bytes oc data);
          (match Tracefile.Convert.binary_to_text tf txt with
          | exception Tracefile.Frame.Corrupt { offset; _ } ->
            Alcotest.(check int) "damage located" victim offset
          | _ -> Alcotest.fail "damaged trace dumped");
          Alcotest.(check bool) "no .tmp left" false (Sys.file_exists (txt ^ ".tmp"));
          Alcotest.(check string) "old file untouched" before
            (In_channel.with_open_bin txt In_channel.input_all)))

let () =
  Alcotest.run "event_log"
    [
      ( "event_log",
        [ Alcotest.test_case "crash-safe file writer" `Quick test_write_file_crash_safe ] );
    ]
