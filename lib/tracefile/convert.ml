let binary_to_text src dst =
  let r = Reader.open_file src in
  Fun.protect
    ~finally:(fun () -> Reader.close r)
    (fun () ->
      Dbi.Atomic_file.write dst (fun oc ->
          match Reader.kind r with
          | Frame.Events ->
            let n = ref 0 in
            Reader.iter r (fun e ->
                output_string oc (Sigil.Event_log.entry_to_string e);
                output_char oc '\n';
                incr n);
            !n
          | Frame.Recording -> Recording.dump r oc
          | Frame.Profile ->
            output_string oc (Sigil.Profile_io.render (fst (Profile_file.of_reader r)));
            Reader.entry_count r))

let validate r =
  match Reader.kind r with
  (* a full decode checks each chunk's framing, CRC and entry count
     against the index *)
  | Frame.Events -> Reader.iter r ignore
  | Frame.Recording -> Recording.iter r (fun _ _ -> ())
  | Frame.Profile -> ignore (Profile_file.of_reader r)

let repair ?chunk_bytes src dst =
  let r, report = Reader.open_salvage src in
  Fun.protect
    ~finally:(fun () -> Reader.close r)
    (fun () ->
      let chunk_bytes = Option.value chunk_bytes ~default:(Reader.chunk_bytes r) in
      (* keep the producing run's options fingerprint: the rewritten trace
         should look like the original run wrote it, minus the damage *)
      let w = Writer.create ~chunk_bytes ~options_tag:(Reader.options_tag r) dst in
      match Reader.iter r (Writer.add w) with
      | () ->
        Writer.close_names (Reader.names r) w;
        report
      | exception e ->
        Writer.discard w;
        raise e)
