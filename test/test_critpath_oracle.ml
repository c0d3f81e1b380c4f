(* Analysis.Critpath against the executable spec of its model,
   test/critpath_spec.ml, which shares no code with it (Critpath_check
   compares them): a qcheck differential over random well-nested event
   streams and long deterministic streams past the generator's reach,
   each also checking that the analysis's path is a longest path of the
   spec's DAG; then the located failures of a malformed stream, MD5
   goldens of the reports, and the allocation and size bounds. *)

open Sigil
module Cp = Analysis.Critpath

(* A simsmall events-mode run of [name], its entries collected through the
   tool's sink. *)
let run_entries name =
  let w = Result.get_ok (Workloads.Suite.find name) in
  let entries = ref [] in
  let r =
    Driver.run_workload ~options:Options.(with_events default)
      ~event_sink:(fun e -> entries := Event_log.copy e :: !entries)
      w Workloads.Scale.Simsmall
  in
  (r, Array.of_list (List.rev !entries))

(* A random stream as Sigil would emit it: Comp and Xfer always name the
   innermost open call, every Ret closes it. Besides calls that closed
   earlier, transfers come from the consuming call itself, from calls
   still open further down the stack, from producers that never existed,
   and repeat the previous producer. One stream in four recurses past the
   initial frame pool; one in four leaves calls open at the end; most
   leave work pending in the root. *)
let gen_stream : Event_log.entry list QCheck.Gen.t =
 fun st ->
  let rand n = Random.State.int st n in
  let out = ref [] in
  let emit e = out := e :: !out in
  let stack = ref [ (Dbi.Context.root, 0) ] in
  let closed = ref [||] and n_closed = ref 0 in
  let next_call = Array.make 16 0 in
  let last_src = ref (Dbi.Context.root, 0) in
  let top () = List.hd !stack in
  let comp () =
    let ctx, call = top () in
    emit (Event_log.Comp { ctx; call; int_ops = rand 6; fp_ops = (if rand 3 = 0 then rand 4 else 0) })
  in
  let xfer () =
    let dst_ctx, dst_call = top () in
    let src_ctx, src_call =
      match rand 6 with
      | 0 | 1 when !n_closed > 0 -> !closed.(rand !n_closed)
      | 2 -> (dst_ctx, dst_call)
      | 3 -> List.nth !stack (rand (List.length !stack))
      | 4 -> (100 + rand 5, rand 50)
      | _ -> !last_src
    in
    last_src := (src_ctx, src_call);
    emit (Event_log.Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes = 8; unique_bytes = 8 })
  in
  let call ctx =
    let c = next_call.(ctx) + 1 in
    next_call.(ctx) <- c;
    emit (Event_log.Call { ctx; call = c });
    stack := (ctx, c) :: !stack
  in
  let ret () =
    match !stack with
    | [ _ ] -> ()
    | ((ctx, c) as frame) :: rest ->
      emit (Event_log.Ret { ctx; call = c });
      if !n_closed = Array.length !closed then
        closed := Array.append !closed (Array.make (max 8 !n_closed) frame);
      !closed.(!n_closed) <- frame;
      incr n_closed;
      stack := rest
    | [] -> assert false
  in
  let steps = 20 + rand 200 in
  for _ = 1 to steps do
    match rand 10 with
    | 0 | 1 | 2 -> comp ()
    | 3 | 4 | 5 -> xfer ()
    | 6 | 7 -> call (1 + rand 15)
    | _ -> ret ()
  done;
  if rand 4 = 0 then begin
    (* recursion deeper than the initial frame pool *)
    let ctx = 1 + rand 15 in
    let depth = 65 + rand 100 in
    for _ = 1 to depth do
      call ctx;
      if rand 2 = 0 then comp ();
      if rand 3 = 0 then xfer ()
    done
  end;
  if rand 4 <> 0 then
    while List.length !stack > 1 do
      if rand 3 = 0 then comp ();
      if rand 4 = 0 then xfer ();
      ret ()
    done;
  (* work left pending in the innermost frame (the root, if all returned) *)
  if rand 5 <> 0 then begin
    comp ();
    if rand 2 = 0 then xfer ()
  end;
  List.rev !out

let arb_stream =
  QCheck.make
    ~print:(fun es -> String.concat "\n" (List.map Event_log.entry_to_string es))
    ~small:List.length gen_stream

let differential =
  QCheck.Test.make ~name:"columns agree with the spec" ~count:500 arb_stream (fun entries ->
      match Critpath_check.agree_on entries with Ok () -> true | Error msg -> QCheck.Test.fail_report msg)

(* The generator must reach the cases it promises, or the differential
   says less than it claims. *)
let test_generator_coverage () =
  let st = Random.State.make [| 11 |] in
  let deep = ref 0 and self_xfer = ref 0 and open_at_end = ref 0 and root_work = ref 0 in
  for _ = 1 to 200 do
    let es = gen_stream st in
    let depth = ref 0 and max_depth = ref 0 in
    List.iter
      (function
        | Event_log.Call _ ->
          incr depth;
          max_depth := max !max_depth !depth
        | Event_log.Ret _ -> decr depth
        | Event_log.Xfer { src_ctx; src_call; dst_ctx; dst_call; _ } ->
          if src_ctx = dst_ctx && src_call = dst_call && dst_ctx <> Dbi.Context.root then
            incr self_xfer
        | Event_log.Comp _ -> ())
      es;
    if !max_depth > 64 then incr deep;
    if !depth > 0 then incr open_at_end
    else
      match List.rev es with
      | (Event_log.Comp { ctx = 0; _ } | Event_log.Xfer { dst_ctx = 0; _ }) :: _ -> incr root_work
      | _ -> ()
  done;
  List.iter
    (fun (what, n) -> if n < 10 then Alcotest.failf "only %d of 200 streams have %s" n what)
    [
      ("recursion past 64", !deep);
      ("self-transfers", !self_xfer);
      ("calls open at the end", !open_at_end);
      ("work left in the root", !root_work);
    ]

(* ---------------------------------------------------------------- *)
(* Long streams                                                     *)
(* ---------------------------------------------------------------- *)

(* What the generator never reaches: 20,500 calls in context 1 (call
   numbers past 2^14), contexts 200 and 0xFFFE, and ~55 K nodes, enough
   for several 64 KB blocks of node records. Each call of context 1
   consumes from the one before it, so with a light producer the
   critical path runs through the whole stream. The producer (0xFFFE, 1)
   is called first and consumed only by the trailing root fragment, a
   dependency more than 2^14 nodes back; when it is heavy the path jumps
   back along it. Context 200 (6,834 calls) is last named as a producer
   by a call number it never reached. *)
let long_stream ~heavy =
  let out = ref [] in
  let emit e = out := e :: !out in
  let comp ctx call n = emit (Event_log.Comp { ctx; call; int_ops = n; fp_ops = n land 1 }) in
  let xfer (src_ctx, src_call) (dst_ctx, dst_call) =
    emit (Event_log.Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes = 8; unique_bytes = 8 })
  in
  let call_ret ctx call body =
    emit (Event_log.Call { ctx; call });
    body ();
    emit (Event_log.Ret { ctx; call })
  in
  call_ret 0xFFFE 1 (fun () -> comp 0xFFFE 1 (if heavy then 1_000_000 else 2));
  call_ret 200 1 (fun () ->
      comp 200 1 3;
      xfer (0xFFFE, 1) (200, 1));
  let wide = ref 1 in
  for c = 1 to 20_500 do
    comp 0 0 1;
    call_ret 1 c (fun () ->
        comp 1 c ((c mod 7) + 1);
        if c > 1 then xfer (1, c - 1) (1, c);
        if c mod 3 = 0 then begin
          incr wide;
          call_ret 200 !wide (fun () ->
              comp 200 !wide (c mod 5);
              xfer (1, c) (200, !wide))
        end;
        comp 1 c 1)
  done;
  (* a producer past the calls its context has seen, in a context of
     more than 4096 calls: no edge, so this heavy call stays off the path *)
  call_ret 201 1 (fun () ->
      comp 201 1 50_000;
      xfer (200, !wide + 4096) (201, 1));
  comp 0 0 5;
  xfer (0xFFFE, 1) (0, 0);
  List.rev !out

let test_long_streams () =
  List.iter
    (fun heavy ->
      match Critpath_check.agree_on ~cores:[ 1; 2; 3; 4; 8; 100 ] (long_stream ~heavy) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "long stream (heavy producer %b): %s" heavy msg)
    [ false; true ]

(* ---------------------------------------------------------------- *)
(* Located failures                                                 *)
(* ---------------------------------------------------------------- *)

let expect_failure name entries expected =
  match Cp.analyze_stream (Helpers.stream_of entries) with
  | exception Failure msg -> Alcotest.(check string) name expected msg
  | _ -> Alcotest.failf "%s: malformed stream accepted" name

(* summarize_stream shares the pass, and the message; read back from a
   binary trace, the failure stays the analysis's, not a chunk's *)
let expect_everywhere name entries expected =
  expect_failure name entries expected;
  (match Cp.summarize_stream (Helpers.stream_of entries) with
  | exception Failure msg -> Alcotest.(check string) (name ^ ", summary") expected msg
  | _ -> Alcotest.failf "%s, summary: malformed stream accepted" name);
  let path = Filename.temp_file "sigil_critpath" ".tf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Tracefile.Writer.create path in
      List.iter (Tracefile.Writer.add w) entries;
      Tracefile.Writer.close_names Dbi.Names.empty w;
      let r = Tracefile.Reader.open_file path in
      Fun.protect
        ~finally:(fun () -> Tracefile.Reader.close r)
        (fun () ->
          match Cp.analyze_stream (Tracefile.Reader.iter r) with
          | exception Failure msg -> Alcotest.(check string) (name ^ ", binary trace") expected msg
          | _ -> Alcotest.failf "%s, binary trace: malformed stream accepted" name))

let test_located_failures () =
  let call ctx call = Event_log.Call { ctx; call } in
  let ret ctx call = Event_log.Ret { ctx; call } in
  let comp ctx call = Event_log.Comp { ctx; call; int_ops = 1; fp_ops = 0 } in
  expect_everywhere "comp"
    [ call 1 1; comp 1 1; comp 2 1 ]
    "Critpath: entry 2: Comp does not match the open call: expected (ctx 1, call 1), found (ctx \
     2, call 1)";
  expect_failure "xfer"
    [
      call 1 1;
      Event_log.Xfer
        { src_ctx = 0; src_call = 0; dst_ctx = 1; dst_call = 2; bytes = 8; unique_bytes = 8 };
    ]
    "Critpath: entry 1: Xfer does not match the open call: expected (ctx 1, call 1), found (ctx \
     1, call 2)";
  expect_failure "ret"
    [ call 1 1; call 2 1; ret 1 1 ]
    "Critpath: entry 2: Ret does not match the open call: expected (ctx 2, call 1), found (ctx 1, \
     call 1)";
  expect_failure "call after the root returned"
    [ comp 0 0; ret 0 0; call 3 1 ]
    "Critpath: entry 2: Call with empty stack: expected an open caller (the root has returned), \
     found (ctx 3, call 1)";
  expect_failure "ret after the root returned"
    [ ret 0 0; ret 5 7 ]
    "Critpath: entry 1: Ret with empty stack: expected an open call (the root has returned), \
     found (ctx 5, call 7)";
  (* call numbers count from 1 per context, in Call order *)
  expect_everywhere "call out of sequence"
    [ call 1 1; ret 1 1; call 2 1; call 1 3 ]
    "Critpath: entry 3: Call out of sequence: expected (ctx 1, call 2), found (ctx 1, call 3)";
  expect_everywhere "call repeated"
    [ call 1 1; ret 1 1; call 1 1 ]
    "Critpath: entry 2: Call out of sequence: expected (ctx 1, call 2), found (ctx 1, call 1)";
  expect_everywhere "context past the shadow's plane"
    [ call 1 1; comp 1 1; call 0xFFFF 1 ]
    "Critpath: entry 2: Call context out of range: expected 0 .. 65534, found (ctx 65535, call 1)";
  expect_everywhere "negative context"
    [ call (-3) 1 ]
    "Critpath: entry 0: Call context out of range: expected 0 .. 65534, found (ctx -3, call 1)"

(* ---------------------------------------------------------------- *)
(* Allocation                                                       *)
(* ---------------------------------------------------------------- *)

(* Nodes are a lane column and a byte stream in major-heap blocks, frames
   and pending work are pooled, so building the DAG of entries already in
   memory allocates a bounded number of minor words per node: the boxed
   tuple the pass returns, the closures it builds and nothing per entry. *)
let test_allocation_bound () =
  List.iter
    (fun name ->
      let _, entries = run_entries name in
      let before = Gc.minor_words () in
      let t = Cp.analyze_stream (fun f -> Array.iter f entries) in
      let words = Gc.minor_words () -. before in
      let per_node = words /. float_of_int (Cp.node_count t) in
      if per_node > 3.0 then
        Alcotest.failf "%s: Critpath.analyze_stream allocates %.3f minor words per node (bound 3)"
          name per_node)
    [ "canneal"; "dedup"; "streamcluster" ]

(* The DAG is one column of 4-byte inclusive lengths, a byte stream of
   varint node records and the byte offset of every 64th record: under
   12 bytes, 1.5 words, per node on canneal, whose records average under
   8 bytes (8-byte lanes read about 15 B per node). The slack is one
   partly filled block per column (16 KB, 64 KB, 16 KB) plus, per block,
   its header and two spine slots. *)
let test_dag_size () =
  let _, entries = run_entries "canneal" in
  let t = Cp.analyze_stream (fun f -> Array.iter f entries) in
  let nodes = Cp.node_count t in
  let blocks = (nodes / 4096) + (nodes / 8192) + 3 in
  let bound = (3 * nodes / 2) + ((16384 + 65536 + 16384) / 8) + (3 * (blocks + 16)) + 64 in
  let words = Obj.reachable_words (Obj.repr t) in
  if words > bound then
    Alcotest.failf "canneal: the DAG of %d nodes holds %d words (bound %d)" nodes words bound

(* ---------------------------------------------------------------- *)
(* Report goldens                                                   *)
(* ---------------------------------------------------------------- *)

let sigil_critpath = Cli.exe "sigil_critpath"

let cli_output args =
  let out = Filename.temp_file "sigil_critpath" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command (Printf.sprintf "%s %s > %s" (Filename.quote sigil_critpath) args
           (Filename.quote out))
      in
      if code <> 0 then Alcotest.failf "sigil_critpath %s exited %d" args code;
      In_channel.with_open_bin out In_channel.input_all)


(* A trace closed without tables names contexts by the rule a live report
   uses for ids its table lacks: the root is "<root>", every other
   context "ctx:<id>". *)
let test_cli_without_tables () =
  let _, entries = run_entries "blackscholes" in
  let path = Filename.temp_file "sigil_critpath" ".tf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Tracefile.Writer.create path in
      Array.iter (Tracefile.Writer.add w) entries;
      Tracefile.Writer.close_names Dbi.Names.empty w;
      let contexts =
        Cp.critical_path_contexts (Cp.analyze_stream (fun f -> Array.iter f entries))
      in
      Alcotest.(check bool) "path reaches the root" true
        (List.length contexts > 1 && List.nth contexts (List.length contexts - 1) = 0);
      let expected =
        List.map (fun ctx -> if ctx = 0 then "<root>" else Printf.sprintf "ctx:%d" ctx) contexts
      in
      let lines = String.split_on_char '\n' (cli_output (Filename.quote path)) in
      let rec after_title = function
        | "critical path (leaf -> main):" :: line :: _ -> line
        | _ :: rest -> after_title rest
        | [] -> Alcotest.fail "no critical path listing"
      in
      Alcotest.(check string)
        "path names"
        ("  " ^ String.concat " -> " expected)
        (after_title lines))

(* A Call out of sequence in a loaded trace is a located error: exit 2
   and one stderr line naming the entry. *)
let test_cli_bad_calls () =
  let path = Filename.temp_file "sigil_critpath" ".tf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Tracefile.Writer.create path in
      List.iter (Tracefile.Writer.add w)
        Event_log.
          [ Call { ctx = 1; call = 1 }; Ret { ctx = 1; call = 1 }; Call { ctx = 1; call = 3 } ];
      Tracefile.Writer.close_names Dbi.Names.empty w;
      let code, lines =
        Cli.stderr "sigil_critpath" (Filename.quote path)
      in
      Alcotest.(check int) "exit code" 2 code;
      Alcotest.(check (list string))
        "one stderr line"
        [
          "error: Critpath: entry 2: Call out of sequence: expected (ctx 1, call 2), found (ctx 1, \
           call 3)";
        ]
        lines)

(* Pinned with the three-column DAG: the full report (parallelism, path
   contexts, 1/2/4/8-core schedules), the --summary report, and every
   critical-path node as "ctx call occurrence self inclusive" lines. The
   reports are of the run's trace, their title line as it read when the
   CLI ran the workload itself, "workload (simsmall)". *)
let report_goldens =
  [
    ( "canneal",
      "1043a12f43535ce9eefb89a0830b6715",
      "df43790e3c62992f150e0884326b32c6",
      "dd66cf0a32bcf23e1f921c1d81f50332" );
    ( "dedup",
      "c6a7a04997ba68668386b9b11f8b436a",
      "d604bb200db33dc0efe0677d78878c49",
      "0ec8f8721ce0944ed4479dd8a8661ca1" );
    ( "streamcluster",
      "1a41f0cdcec3c5255b362d7d9fa4671a",
      "bfb135121e9f659f8a55f50dfdd77eee",
      "25f443948d107f65743e60dc6f990a65" );
  ]

let test_report_goldens () =
  List.iter
    (fun (name, full, summary, path) ->
      let r, entries = run_entries name in
      Helpers.with_temp ~ext:".tf" (fun trace ->
          let w = Tracefile.Writer.create ~options:Options.(with_events default) trace in
          Array.iter (Tracefile.Writer.add w) entries;
          let m = r.Driver.machine in
          Tracefile.Writer.close_names
            (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m))
            w;
          let md5 args =
            let report = cli_output (Filename.quote trace ^ args) in
            let eol = String.index report '\n' in
            let title = String.sub report 0 (String.rindex_from report eol ':') in
            let body = String.sub report eol (String.length report - eol) in
            Digest.to_hex (Digest.string (Printf.sprintf "%s: %s (simsmall) ==%s" title name body))
          in
          Alcotest.(check string)
            (name ^ " full report") full
            (md5 " --cores 1 --cores 2 --cores 4 --cores 8");
          Alcotest.(check string) (name ^ " summary") summary (md5 " --summary"));
      let lines =
        List.map
          (fun (n : Cp.node) ->
            Printf.sprintf "%d %d %d %d %d\n" n.Cp.ctx n.Cp.call n.Cp.occurrence n.Cp.self
              n.Cp.inclusive)
          (Cp.critical_path (Cp.analyze_stream (fun f -> Array.iter f entries)))
      in
      Alcotest.(check string)
        (name ^ " critical path") path
        (Digest.to_hex (Digest.string (String.concat "" lines))))
    report_goldens

let suite =
  ( "critpath_oracle",
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest differential;
          Alcotest.test_case "generator coverage" `Quick test_generator_coverage;
          Alcotest.test_case "long streams" `Quick test_long_streams;
        ] );
      ( "failures",
        [
          Alcotest.test_case "located" `Quick test_located_failures;
          Alcotest.test_case "located on the CLI" `Quick test_cli_bad_calls;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "reports" `Quick test_report_goldens;
          Alcotest.test_case "names without tables" `Quick test_cli_without_tables;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "analyze bound" `Quick test_allocation_bound;
          Alcotest.test_case "DAG size" `Quick test_dag_size;
        ] );
    ] )
