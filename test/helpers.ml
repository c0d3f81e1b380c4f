(* What the test files share: the runner of a layer's executable, the
   temporary-file and trace-reading helpers, and lookups. *)

(* [run suites] runs each file's [(name, groups)] as an alcotest run of its
   own, so every group keeps its name, its indices and its file's column
   width, and exits 1 when any of them failed. A first argument that names
   one of the suites runs that suite alone and passes the rest of the
   command line to alcotest: [dune exec test/cache_tests.exe -- fuzz test
   fuzz 3]. Alcotest's own [test NAME_REGEX [TESTCASES]] exits after the
   first run and rejects a run whose tests it skips entirely, so that
   filter is applied here, to every suite: a suite with no matching test
   is left out, and a filter no test of any suite matches exits 1. *)
let run suites =
  let argv, suites =
    match Array.to_list Sys.argv with
    | exe :: name :: rest when List.mem_assoc name suites ->
      (Array.of_list (exe :: rest), [ (name, List.assoc name suites) ])
    | _ -> (Sys.argv, suites)
  in
  let argv, filter =
    match Array.to_list argv with
    | exe :: "test" :: regex :: rest ->
      (* TESTCASES is "4,6-10,19", with "-" or ".." in a range *)
      let cases, rest =
        match rest with c :: r when c <> "" && c.[0] <> '-' -> ([ c ], r) | _ -> ([], rest)
      in
      let dash = Re.compile (Re.alt [ Re.char '-'; Re.str ".." ]) in
      let in_range i r =
        match List.map int_of_string (Re.split dash r) with
        | [ a; b ] -> a <= i && i <= b
        | _ -> int_of_string r = i
      in
      let name = Re.execp (Re.compile (Re.Pcre.re regex)) in
      let index i =
        List.for_all (fun c -> List.exists (in_range i) (String.split_on_char ',' c)) cases
      in
      let filter ~name:n ~index:i = if name n && index i then `Run else `Skip in
      (Array.of_list (exe :: rest), Some (String.concat " " (regex :: cases), filter))
    | _ -> (argv, None)
  in
  let suites =
    match filter with
    | None -> suites
    | Some (described, f) ->
      let matches (group, tests) =
        List.exists (fun i -> f ~name:group ~index:i = `Run) (List.init (List.length tests) Fun.id)
      in
      let kept = List.filter (fun (_, groups) -> List.exists matches groups) suites in
      if kept = [] then (
        prerr_endline ("no test matches the filter " ^ described);
        exit 1);
      kept
  in
  let filter = Option.map snd filter in
  let failed =
    List.filter
      (fun (name, groups) ->
        match Alcotest.run ~and_exit:false ?filter ~argv name groups with
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
