(* A critical-path summary streams: in process, the workload runs inside
   summarize_stream and every entry is consumed as the tool emits it; on
   the CLI, every entry of the saved trace as the reader decodes it.
   Nothing keeps the event log. Measured by the major heap's peak, which
   is why this is an executable of its own: nothing run before it can
   have raised the peak. canneal at simsmall emits 284 K entries; a pass
   that kept them peaks near 2.5 M words, a streaming one near 0.25 M. *)

let bound = 600_000

let canneal = Result.get_ok (Workloads.Suite.find "canneal")

let test_in_process () =
  let s =
    Analysis.Critpath.summarize_stream (fun emit ->
        ignore
          (Driver.run_workload ~options:Sigil.Options.(with_events default) ~event_sink:emit
             canneal Workloads.Scale.Simsmall))
  in
  Alcotest.(check int) "fragments" 96_892 s.Analysis.Critpath.s_fragments;
  let peak = (Gc.quick_stat ()).Gc.top_heap_words in
  if peak > bound then Alcotest.failf "top_heap_words %d (bound %d)" peak bound

(* The CLI reads canneal's trace as sigil_run --events writes it; the
   runtime prints its GC counters at exit under OCAMLRUNPARAM=v=0x400. *)
let test_cli () =
  let trace = Filename.temp_file "canneal" ".tf" in
  let err = Filename.temp_file "sigil_critpath" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ trace; err ])
    (fun () ->
      let sh fmt = Printf.ksprintf Sys.command fmt in
      if sh "%s canneal --events %s > /dev/null" (Filename.quote (Cli.exe "sigil_run")) (Filename.quote trace) <> 0
      then Alcotest.fail "sigil_run canneal --events failed";
      let code =
        sh "OCAMLRUNPARAM=v=0x400 %s %s --summary > /dev/null 2> %s"
          (Filename.quote (Cli.exe "sigil_critpath")) (Filename.quote trace) (Filename.quote err)
      in
      if code <> 0 then Alcotest.failf "sigil_critpath exited %d" code;
      let peak =
        In_channel.with_open_text err In_channel.input_all
        |> String.split_on_char '\n'
        |> List.find_map (fun line -> Scanf.sscanf_opt line "top_heap_words: %d" Fun.id)
      in
      match peak with
      | None -> Alcotest.fail "no top_heap_words in the runtime's exit report"
      | Some peak ->
        if peak > bound then
          Alcotest.failf "sigil_critpath canneal.tf --summary: top_heap_words %d (bound %d)" peak
            bound)

let () =
  Alcotest.run "critpath_live"
    [
      ( "summary heap peak",
        [
          Alcotest.test_case "in process" `Quick test_in_process;
          Alcotest.test_case "sigil_critpath --summary" `Quick test_cli;
        ] );
    ]
