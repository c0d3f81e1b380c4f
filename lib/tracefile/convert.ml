type format = Binary | Text

let sniff path = if Reader.is_tracefile path then Binary else Text

let text_to_binary ?chunk_bytes src dst =
  let w = Writer.create ?chunk_bytes dst in
  match
    Sigil.Event_log.iter_file src (Writer.add w);
    Writer.entries w
  with
  | n ->
    Writer.close w;
    n
  | exception e ->
    (* a malformed source must not publish (or leave) a partial trace *)
    Writer.discard w;
    raise e

let binary_to_text src dst =
  let r = Reader.open_file src in
  Fun.protect
    ~finally:(fun () -> Reader.close r)
    (fun () ->
      let n = ref 0 in
      Sigil.Event_log.write_file dst (fun emit ->
          Reader.iter r (fun e ->
              emit e;
              incr n));
      !n)

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
        let names, stripped, ctx_parent, ctx_fn = Reader.raw_tables r in
        Writer.close_raw ~names ~stripped ~ctx_parent ~ctx_fn w;
        report
      | exception e ->
        Writer.discard w;
        raise e)
