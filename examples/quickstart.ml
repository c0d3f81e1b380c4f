(* Quickstart: write a tiny guest program against the Dbi API, run it under
   Sigil, and read the communication profile.

     dune exec examples/quickstart.exe

   The program below is the paper's running example in miniature: a
   producer fills a buffer, a consumer reads it twice (so half the traffic
   is re-use, not "true" communication), and a local scratch value never
   leaves the consumer. *)

let program m =
  Dbi.Guest.call m "main" (fun () ->
      let buf = Dbi.Guest.alloc m 1024 in
      Dbi.Guest.call m "producer" (fun () ->
          Dbi.Guest.iop m 200;
          Dbi.Guest.write_range m buf 1024);
      Dbi.Guest.call m "consumer" (fun () ->
          Dbi.Guest.read_range m buf 1024;
          (* re-read: an accelerator with an internal buffer would not
             fetch this again *)
          Dbi.Guest.read_range m buf 1024;
          Dbi.Guest.flop m 500;
          let scratch = Dbi.Guest.alloc m 8 in
          Dbi.Guest.write m scratch 8;
          Dbi.Guest.read m scratch 8);
      Dbi.Guest.free m buf)

let () =
  (* attach the Sigil tool, Valgrind-style, and run *)
  let sigil = ref None in
  let _ =
    Dbi.Runner.run
      ~tools:
        [
          (fun m ->
            let t = Sigil.Tool.create m in
            sigil := Some t;
            Sigil.Tool.tool t);
        ]
      program
  in
  let snap = Sigil.Profile_io.snapshot_of_tool (Option.get !sigil) in

  Format.printf "Aggregate profile (per calling context):@.@.";
  Sigil.Report.pp Format.std_formatter snap;

  Format.printf "@.Communication edges (who feeds whom, unique vs total bytes):@.@.";
  Sigil.Report.pp_edges Format.std_formatter snap;

  (* the numbers to notice *)
  List.iter
    (fun (s : Sigil.Profile_io.ctx_stats) ->
      if Sigil.Profile_io.name snap s.ctx = "consumer" then begin
        let total = s.input_unique + s.input_nonunique in
        Format.printf
          "@.The consumer read %d input bytes in total, but only %d are unique —@.an \
           accelerator for it needs %.0f%% of the naive bandwidth estimate.@."
          total s.input_unique
          (100.0 *. float_of_int s.input_unique /. float_of_int total)
      end)
    (Sigil.Profile_io.contexts snap)
