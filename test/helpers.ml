(* What the test files share: the runner of a layer's executable, the
   temporary-file and trace-reading helpers, and lookups. *)

(* [run suites] runs each file's [(name, groups)] as an alcotest run of its
   own, so every group keeps its name, its indices and its file's column
   width, and exits 1 when any of them failed. A first argument that names
   one of the suites runs that suite alone and passes the rest of the
   command line to alcotest: [dune exec test/cache_tests.exe -- fuzz test
   fuzz 3]. *)
let run suites =
  let argv, suites =
    match Array.to_list Sys.argv with
    | exe :: name :: rest when List.mem_assoc name suites ->
      (Array.of_list (exe :: rest), [ (name, List.assoc name suites) ])
    | _ -> (Sys.argv, suites)
  in
  let failed =
    List.filter
      (fun (name, groups) ->
        match Alcotest.run ~and_exit:false ~argv name groups with
        | () -> false
        | exception Alcotest.Test_error -> true)
      suites
  in
  if failed <> [] then (
    prerr_endline ("failed: " ^ String.concat ", " (List.map fst failed));
    exit 1)

(* [with_temp f] calls [f] with a fresh temporary path, then removes it and
   the [.tmp] file an atomic write may leave beside it. *)
let with_temp ?(ext = "") f =
  let path = Filename.temp_file "sigil_test" ext in
  let remove p = if Sys.file_exists p then Sys.remove p in
  Fun.protect ~finally:(fun () -> List.iter remove [ path; path ^ ".tmp" ]) (fun () -> f path)

let with_reader path f =
  let r = Tracefile.Reader.open_file path in
  Fun.protect ~finally:(fun () -> Tracefile.Reader.close r) (fun () -> f r)

(* Every entry of the event trace at [path], copied out of the reader's
   lent entry. *)
let read_entries path =
  with_reader path (fun r ->
      let acc = ref [] in
      Tracefile.Reader.iter r (fun e -> acc := Sigil.Event_log.copy e :: !acc);
      List.rev !acc)

(* A list of entries as the stream [Critpath.analyze_stream] takes. *)
let stream_of entries f = List.iter f entries

(* The context whose call path is [path] in machine [m]'s run. *)
let find_ctx m path =
  let contexts = Dbi.Machine.contexts m in
  let names = Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts in
  let found = ref None in
  Dbi.Context.iter contexts (fun ctx -> if Dbi.Names.path names ctx = path then found := Some ctx);
  match !found with Some ctx -> ctx | None -> Alcotest.failf "no context %s" path

let find_workload name =
  match Workloads.Suite.find name with Ok w -> w | Error e -> Alcotest.fail e

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0
