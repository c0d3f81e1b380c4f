(* Binary event-trace format: varint/codec round-trips (including extreme
   values), chunk framing, corruption diagnostics with chunk offsets, the
   text dump and the size/memory bounds the format exists for. *)

open Sigil

let entry =
  Alcotest.testable (fun ppf e -> Format.pp_print_string ppf (Event_log.entry_to_string e)) ( = )

let sample_entries =
  [
    Event_log.Comp { ctx = 0; call = 0; int_ops = 10; fp_ops = 0 };
    Event_log.Call { ctx = 1; call = 1 };
    Event_log.Comp { ctx = 1; call = 1; int_ops = 10; fp_ops = 2 };
    Event_log.Xfer
      { src_ctx = 0; src_call = 0; dst_ctx = 1; dst_call = 1; bytes = 64; unique_bytes = 32 };
    Event_log.Xfer
      { src_ctx = 0; src_call = 0; dst_ctx = 1; dst_call = 1; bytes = 64; unique_bytes = 64 };
    Event_log.Ret { ctx = 1; call = 1 };
    Event_log.Comp { ctx = 0; call = 0; int_ops = 3; fp_ops = 0 };
  ]

(* ---------------------------------------------------------------- *)
(* Varints                                                          *)
(* ---------------------------------------------------------------- *)

let test_varint_cases () =
  let roundtrip n =
    let buf = Buffer.create 16 in
    Tracefile.Varint.write_signed buf n;
    let b = Buffer.to_bytes buf in
    let pos = ref 0 in
    let n' = Tracefile.Varint.read_signed b ~len:(Bytes.length b) ~pos in
    Alcotest.(check int) (Printf.sprintf "signed %d" n) n n';
    Alcotest.(check int) "consumed all" (Bytes.length b) !pos
  in
  List.iter roundtrip
    [ 0; 1; -1; 63; 64; 127; 128; 16383; 16384; -16384; max_int; min_int; max_int - 1 ];
  let buf = Buffer.create 16 in
  Tracefile.Varint.write buf max_int;
  let b = Buffer.to_bytes buf in
  Alcotest.(check int) "max_int unsigned" max_int
    (Tracefile.Varint.read b ~len:(Bytes.length b) ~pos:(ref 0))

let test_varint_truncated () =
  let buf = Buffer.create 16 in
  Tracefile.Varint.write buf 1_000_000;
  let b = Bytes.sub (Buffer.to_bytes buf) 0 (Buffer.length buf - 1) in
  (match Tracefile.Varint.read b ~len:(Bytes.length b) ~pos:(ref 0) with
  | exception Tracefile.Varint.Truncated -> ()
  | v -> Alcotest.failf "truncated varint decoded to %d" v);
  (* the bound, not the buffer's end, cuts it *)
  let b = Buffer.to_bytes buf in
  match Tracefile.Varint.read b ~len:(Bytes.length b - 1) ~pos:(ref 0) with
  | exception Tracefile.Varint.Truncated -> ()
  | v -> Alcotest.failf "varint cut by its bound decoded to %d" v

let qcheck_entry_gen =
  let open QCheck.Gen in
  let pos_int = oneof [ int_range 0 1000; int_range 0 max_int ] in
  let any_int = oneof [ int_range (-1000) 1000; int_range min_int max_int ] in
  oneof
    [
      map2 (fun ctx call -> Event_log.Call { ctx; call }) any_int any_int;
      map2 (fun ctx call -> Event_log.Ret { ctx; call }) any_int any_int;
      map3
        (fun ctx call (int_ops, fp_ops) -> Event_log.Comp { ctx; call; int_ops; fp_ops })
        any_int any_int
        (pair pos_int pos_int);
      map3
        (fun (src_ctx, src_call) (dst_ctx, dst_call) (bytes, unique_bytes) ->
          Event_log.Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes; unique_bytes })
        (pair any_int any_int) (pair any_int any_int) (pair pos_int pos_int);
    ]

let qcheck_entry =
  QCheck.make ~print:(fun e -> Event_log.entry_to_string e) qcheck_entry_gen

(* entry -> binary -> entry through the chunk codec, including extreme
   63-bit values (zigzag varints must round-trip min_int/max_int) *)
let codec_roundtrip =
  QCheck.Test.make ~name:"entry binary codec roundtrip" ~count:500
    (QCheck.list_of_size (QCheck.Gen.int_range 1 50) qcheck_entry)
    (fun entries ->
      let buf = Buffer.create 1024 in
      let d = Tracefile.Frame.delta () in
      List.iter (Tracefile.Frame.encode_entry d buf) entries;
      let b = Buffer.to_bytes buf in
      let d' = Tracefile.Frame.delta () in
      let pos = ref 0 in
      let decoded =
        List.map
          (fun _ -> Event_log.copy (Tracefile.Frame.decode_entry d' b ~len:(Bytes.length b) ~pos))
          entries
      in
      !pos = Bytes.length b && decoded = entries)

(* ---------------------------------------------------------------- *)
(* File round-trips                                                 *)
(* ---------------------------------------------------------------- *)

let write_entries ?chunk_bytes entries path =
  let w = Tracefile.Writer.create ?chunk_bytes path in
  List.iter (Tracefile.Writer.add w) entries;
  Tracefile.Writer.close_names Dbi.Names.empty w;
  w

let test_file_roundtrip () =
  Helpers.with_temp ~ext:".tf" (fun path ->
      let _w = write_entries sample_entries path in
      Alcotest.(check (list entry)) "roundtrip" sample_entries (Helpers.read_entries path))

let test_multichunk_roundtrip () =
  (* tiny chunks force many chunk boundaries; delta state must reset at
     each so every chunk decodes on its own *)
  let entries = List.concat (List.init 100 (fun _ -> sample_entries)) in
  Helpers.with_temp ~ext:".tf" (fun path ->
      let w = write_entries ~chunk_bytes:64 entries path in
      Alcotest.(check bool) "several chunks" true (Tracefile.Writer.chunks w > 5);
      Alcotest.(check (list entry)) "roundtrip" entries (Helpers.read_entries path);
      let r = Tracefile.Reader.open_file path in
      Fun.protect
        ~finally:(fun () -> Tracefile.Reader.close r)
        (fun () ->
          Alcotest.(check int) "entry count" (List.length entries)
            (Tracefile.Reader.entry_count r);
          Tracefile.Convert.validate r))

let test_qcheck_file_roundtrip =
  QCheck.Test.make ~name:"file roundtrip (random logs, tiny chunks)" ~count:50
    (QCheck.list_of_size (QCheck.Gen.int_range 0 200) qcheck_entry)
    (fun entries ->
      Helpers.with_temp ~ext:".tf" (fun path ->
          let _ = write_entries ~chunk_bytes:32 entries path in
          Helpers.read_entries path = entries))

(* ---------------------------------------------------------------- *)
(* Corruption diagnostics                                           *)
(* ---------------------------------------------------------------- *)

let check_corrupt_at ~expected_offset f =
  match f () with
  | exception Tracefile.Frame.Corrupt { offset; _ } ->
    Alcotest.(check int) "offending chunk offset" expected_offset offset
  | _ -> Alcotest.fail "damaged file accepted"

let test_truncated_file () =
  let entries = List.concat (List.init 200 (fun _ -> sample_entries)) in
  Helpers.with_temp ~ext:".tf" (fun path ->
      let _ = write_entries ~chunk_bytes:128 entries path in
      let offsets =
        let r = Tracefile.Reader.open_file path in
        Fun.protect
          ~finally:(fun () -> Tracefile.Reader.close r)
          (fun () -> Tracefile.Reader.chunk_offsets r)
      in
      let last_offset = List.nth offsets (List.length offsets - 1) in
      (* cut mid-way through the last chunk's payload: the trailer (and
         index) vanish, so open must re-scan the framing and name the
         first incomplete chunk *)
      let data = In_channel.with_open_bin path In_channel.input_all in
      Helpers.with_temp ~ext:".tf" (fun cut_path ->
          Out_channel.with_open_bin cut_path (fun oc ->
              Out_channel.output_string oc (String.sub data 0 (last_offset + 20)));
          check_corrupt_at ~expected_offset:last_offset (fun () ->
              Tracefile.Reader.open_file cut_path)))

let test_corrupted_crc () =
  let entries = List.concat (List.init 200 (fun _ -> sample_entries)) in
  Helpers.with_temp ~ext:".tf" (fun path ->
      let _ = write_entries ~chunk_bytes:128 entries path in
      let victim =
        let r = Tracefile.Reader.open_file path in
        Fun.protect
          ~finally:(fun () -> Tracefile.Reader.close r)
          (fun () -> List.nth (Tracefile.Reader.chunk_offsets r) 2)
      in
      (* flip one payload byte; the trailer and index stay intact, so the
         file opens fine and the damage surfaces when the chunk decodes *)
      let data = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      let target = victim + 16 + 3 (* inside chunk 2's payload *) in
      Bytes.set data target (Char.chr (Char.code (Bytes.get data target) lxor 0xff));
      Helpers.with_temp ~ext:".tf" (fun bad_path ->
          Out_channel.with_open_bin bad_path (fun oc ->
              Out_channel.output_bytes oc data);
          let r = Tracefile.Reader.open_file bad_path in
          Fun.protect
            ~finally:(fun () -> Tracefile.Reader.close r)
            (fun () ->
              check_corrupt_at ~expected_offset:victim (fun () ->
                  Tracefile.Reader.iter r ignore);
              check_corrupt_at ~expected_offset:victim (fun () ->
                  Tracefile.Convert.validate r))))

(* A reader decodes every chunk in one buffer sized for the longest, so a
   shorter chunk sits in front of the stale tail of a longer one: its
   decode must stop at its own length. Chunk 1 is ten 6-byte computations;
   chunk 2 holds one whole 4-byte computation and one cut inside its op
   count, yet its CRC matches. Read past its 8 bytes, the cut varint
   would end in chunk 1's bytes and the chunk would fail elsewhere, as
   trailing garbage. Both the indexed read and the open-time walk of a
   file without its trailer name the cut record. *)
let test_short_chunk_after_long () =
  Helpers.with_temp ~ext:".tf" (fun path ->
      let w = Tracefile.Writer.create ~chunk_bytes:60 path in
      let add s = Tracefile.Writer.add_record w Buffer.add_string s in
      for _ = 1 to 10 do
        add "\x12\x00\x00\xff\xff\x7f"
      done;
      add "\x12\x00\x00\x05";
      add "\x12\x00\x00\xff";
      Tracefile.Writer.close_names Dbi.Names.empty w;
      let offsets, data_end =
        let r = Tracefile.Reader.open_file path in
        Fun.protect
          ~finally:(fun () -> Tracefile.Reader.close r)
          (fun () -> (Tracefile.Reader.chunk_offsets r, Tracefile.Reader.data_end r))
      in
      let second = List.nth offsets 1 in
      Alcotest.(check int) "chunk 2 holds 8 bytes" (second + 16 + 8) data_end;
      let located what f =
        match f () with
        | exception Tracefile.Frame.Corrupt { offset; reason } ->
          Alcotest.(check (pair int string)) what (second + 16 + 4, "truncated record")
            (offset, reason)
        | _ -> Alcotest.failf "%s: the cut record decoded" what
      in
      let r = Tracefile.Reader.open_file path in
      Fun.protect
        ~finally:(fun () -> Tracefile.Reader.close r)
        (fun () ->
          located "iter" (fun () -> Tracefile.Reader.iter r ignore);
          located "validate" (fun () -> Tracefile.Convert.validate r));
      let data = In_channel.with_open_bin path In_channel.input_all in
      Helpers.with_temp ~ext:".tf" (fun cut ->
          Out_channel.with_open_bin cut (fun oc ->
              Out_channel.output_string oc (String.sub data 0 data_end));
          located "open without a trailer" (fun () -> Tracefile.Reader.open_file cut)))

(* The binary trace is the only event file: a text file is corrupt at
   offset 0 for the reader and for every CLI that takes a trace, which
   exits 2 with one stderr line. *)
let test_not_a_tracefile () =
  Helpers.with_temp ~ext:".txt" (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "C 1 1\n");
      (match Tracefile.Reader.open_file path with
      | exception Tracefile.Frame.Corrupt { offset = 0; _ } -> ()
      | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "text file opened as tracefile");
      Helpers.with_temp ~ext:".out" (fun out ->
          Sys.remove out;
          let p = Filename.quote path in
          List.iter
            (fun (what, name, args) ->
              let code, lines = Cli.stderr name args in
              Alcotest.(check int) (what ^ ": exit code") 2 code;
              Alcotest.(check (list string))
                (what ^ ": one stderr line")
                [ "error: corrupt trace at offset 0: not a sigil tracefile (too short)" ]
                lines)
            [
              ("sigil_critpath", "sigil_critpath", p);
              ("sigil_trace inspect", "sigil_trace", "inspect " ^ p);
              ("sigil_trace convert", "sigil_trace", "convert " ^ p ^ " " ^ Filename.quote out);
            ];
          Alcotest.(check bool) "convert published nothing" false (Sys.file_exists out);
          Alcotest.(check bool) "convert left no .tmp" false (Sys.file_exists (out ^ ".tmp"))))

let varints ns =
  let b = Buffer.create 16 in
  List.iter (Tracefile.Varint.write b) ns;
  Buffer.contents b

(* A clean one-chunk trace whose tail is re-laid by hand: the raw
   [tables] region, then the writer's chunk index with its count replaced
   by [chunk_count], then a trailer pointing at both. Returns the tables
   offset. *)
let write_crafted_tail ~tables ~chunk_count path =
  let _ = write_entries sample_entries path in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length data in
  let u64 off = Tracefile.Frame.get_u64 (Bytes.of_string data) off in
  let tables_offset = u64 (len - 32) and index_offset = u64 (len - 24) in
  (* one chunk: the index is a one-byte count, then that chunk's triple *)
  Alcotest.(check string) "writer's chunk count" (varints [ 1 ]) (String.sub data index_offset 1);
  let b = Buffer.create len in
  Buffer.add_string b (String.sub data 0 tables_offset);
  Buffer.add_string b tables;
  let crafted_index_offset = Buffer.length b in
  Buffer.add_string b (varints [ chunk_count ]);
  Buffer.add_string b (String.sub data (index_offset + 1) (len - 32 - index_offset - 1));
  Tracefile.Frame.add_u64 b tables_offset;
  Tracefile.Frame.add_u64 b crafted_index_offset;
  Tracefile.Frame.add_u64 b (u64 (len - 16));
  Buffer.add_string b Tracefile.Frame.trailer_magic;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Buffer.contents b));
  tables_offset

(* A table or index count below zero or past the bytes left is damage at
   the tables offset: open_file raises [Corrupt] (not [Invalid_argument]
   or [Out_of_memory]), salvage keeps the chunk and reports the tail lost,
   and [sigil_trace inspect] exits 2 with a one-line message. *)
let test_crafted_counts () =
  (* tables: symbol count, stripped byte, then (no names) context count *)
  let tables ~symbols ~contexts = varints [ symbols ] ^ "\000" ^ varints [ contexts ] in
  List.iter
    (fun (what, tables, chunk_count) ->
      Helpers.with_temp ~ext:".tf" (fun path ->
          let tables_offset = write_crafted_tail ~tables ~chunk_count path in
          check_corrupt_at ~expected_offset:tables_offset (fun () ->
              Tracefile.Reader.open_file path);
          (match Tracefile.Reader.open_salvage path with
          | r, report ->
            Tracefile.Reader.close r;
            Alcotest.(check bool) (what ^ ": tail lost") false report.Tracefile.Reader.tail_valid;
            Alcotest.(check int)
              (what ^ ": chunk kept")
              (List.length sample_entries) report.Tracefile.Reader.recovered_entries
          | exception e -> Alcotest.failf "%s: salvage raised %s" what (Printexc.to_string e));
          let code, lines = Cli.stderr "sigil_trace" ("inspect " ^ Filename.quote path) in
          Alcotest.(check int) (what ^ ": inspect exit code") 2 code;
          Alcotest.(check int) (what ^ ": one stderr line") 1 (List.length lines)))
    [
      ("negative symbol count", tables ~symbols:(-1) ~contexts:0, 1);
      ("symbol count 2^32", tables ~symbols:(1 lsl 32) ~contexts:0, 1);
      ("negative context count", tables ~symbols:0 ~contexts:(-1), 1);
      ("negative chunk count", tables ~symbols:0 ~contexts:0, -1);
    ]

(* Every context must name an older parent and, when names are present,
   a known function: anything else is damage at the tables offset for
   open_file (and for inspect), and salvage keeps the chunks but not the
   tables. A parent past the table, or a parent cycle, would otherwise
   reach the path queries. *)
let test_context_table_checked () =
  List.iter
    (fun (what, ctx_parent, ctx_fn) ->
      Helpers.with_temp ~ext:".tf" (fun path ->
          let w = Tracefile.Writer.create path in
          List.iter (Tracefile.Writer.add w) sample_entries;
          Tracefile.Writer.close_names
            { Dbi.Names.symbols = [| "main"; "f" |]; stripped = false; parent = ctx_parent;
              fn = ctx_fn }
            w;
          let data = In_channel.with_open_bin path In_channel.input_all in
          let tables_offset =
            Tracefile.Frame.get_u64 (Bytes.of_string data) (String.length data - 32)
          in
          check_corrupt_at ~expected_offset:tables_offset (fun () ->
              Tracefile.Reader.open_file path);
          (match Tracefile.Reader.open_salvage path with
          | r, report ->
            Tracefile.Reader.close r;
            Alcotest.(check bool) (what ^ ": tail lost") false report.Tracefile.Reader.tail_valid;
            Alcotest.(check int)
              (what ^ ": entries kept")
              (List.length sample_entries) report.Tracefile.Reader.recovered_entries
          | exception e -> Alcotest.failf "%s: salvage raised %s" what (Printexc.to_string e));
          let code, lines = Cli.stderr "sigil_trace" ("inspect " ^ Filename.quote path) in
          Alcotest.(check int) (what ^ ": inspect exit code") 2 code;
          Alcotest.(check int) (what ^ ": one stderr line") 1 (List.length lines)))
    [
      ("parent that does not exist", [| 0; 0; 5 |], [| 0; 0; 1 |]);
      ("parent not older than its child", [| 0; 0; 2 |], [| 0; 0; 1 |]);
      ("parent cycle", [| 0; 2; 1 |], [| 0; 0; 1 |]);
      ("negative parent", [| 0; -1; 0 |], [| 0; 0; 1 |]);
      ("unknown function", [| 0; 0; 1 |], [| 0; 0; 2 |]);
    ]

(* A file holds one kind: an event trace is not a recording or a profile,
   and a profile is not an event trace. Each mismatch is damage at the
   first chunk, on the API and on the CLI. *)
let test_kind_mismatch () =
  Helpers.with_temp ~ext:".tf" (fun path ->
      let _ = write_entries sample_entries path in
      let r = Tracefile.Reader.open_file path in
      let first = List.hd (Tracefile.Reader.chunk_offsets r) in
      check_corrupt_at ~expected_offset:first (fun () ->
          Tracefile.Recording.replay ~tools:[] r);
      Tracefile.Reader.close r;
      check_corrupt_at ~expected_offset:first (fun () -> Tracefile.Profile_file.load path));
  Helpers.with_temp ~ext:".prof" (fun path ->
      let w = Tracefile.Writer.create ~kind:Tracefile.Frame.Profile path in
      Tracefile.Writer.add_record w (fun buf ints -> List.iter (Tracefile.Varint.write buf) ints)
        [ 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 ];
      Tracefile.Writer.close_names { Dbi.Names.empty with parent = [| -1 |]; fn = [| -1 |] } w;
      let first =
        let r = Tracefile.Reader.open_file path in
        Fun.protect
          ~finally:(fun () -> Tracefile.Reader.close r)
          (fun () -> List.hd (Tracefile.Reader.chunk_offsets r))
      in
      check_corrupt_at ~expected_offset:first (fun () -> Helpers.read_entries path);
      let code, lines = Cli.stderr "sigil_critpath" (Filename.quote path) in
      Alcotest.(check int) "critpath exit code" 2 code;
      Alcotest.(check (list string))
        "one stderr line"
        [ Printf.sprintf "error: corrupt trace at offset %d: event trace expected, found profile" first ]
        lines)

(* ---------------------------------------------------------------- *)
(* Text dump                                                        *)
(* ---------------------------------------------------------------- *)

(* The dump is one entry_to_string line per entry, in trace order. *)
let test_dump () =
  Helpers.with_temp ~ext:".tf" (fun tf ->
      Helpers.with_temp ~ext:".txt" (fun txt ->
          let _ = write_entries ~chunk_bytes:64 sample_entries tf in
          let n = Tracefile.Convert.binary_to_text tf txt in
          Alcotest.(check int) "entry count" (List.length sample_entries) n;
          Alcotest.(check (list string))
            "one line per entry"
            (List.map Event_log.entry_to_string sample_entries)
            (In_channel.with_open_bin txt In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (( <> ) ""))))

(* ---------------------------------------------------------------- *)
(* Live runs: embedded tables, memory bound, size bound             *)
(* ---------------------------------------------------------------- *)

(* A simsmall run's entries in trace order, collected through the tool's
   sink. *)
let run_entries ~options name =
  let acc = ref [] in
  let _r =
    Driver.run_workload ~options
      ~event_sink:(fun e -> acc := Event_log.copy e :: !acc)
      (Helpers.find_workload name) Workloads.Scale.Simsmall
  in
  List.rev !acc

let test_embedded_tables () =
  Helpers.with_temp ~ext:".tf" (fun path ->
      let options = Sigil.Options.(with_events default) in
      let w = Tracefile.Writer.create ~options path in
      let r =
        Driver.run_workload ~options ~event_sink:(Tracefile.Writer.sink w)
          (Helpers.find_workload "blackscholes") Workloads.Scale.Simsmall
      in
      let m = r.Driver.machine in
      Tracefile.Writer.close_names
        (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m)) w;
      let rd = Tracefile.Reader.open_file path in
      Fun.protect
        ~finally:(fun () -> Tracefile.Reader.close rd)
        (fun () ->
          let names = Tracefile.Reader.names rd in
          let live =
            Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m)
          in
          Alcotest.(check bool) "table as the run's" true (names = live);
          Alcotest.(check string) "root" "<root>" (Dbi.Names.name names Dbi.Context.root);
          (* every context the trace mentions resolves to the name the
             producing run would print *)
          let snap = Sigil.Profile_io.snapshot_of_tool (Driver.sigil r) in
          Tracefile.Reader.iter rd (function
            | Event_log.Call { ctx; _ } ->
              Alcotest.(check string)
                (Printf.sprintf "ctx %d" ctx)
                (Sigil.Profile_io.name snap ctx) (Dbi.Names.name names ctx)
            | _ -> ())))

let test_sink_memory_bound () =
  Helpers.with_temp ~ext:".tf" (fun path ->
      let options = Sigil.Options.(with_events default) in
      let chunk_bytes = 4096 in
      let w = Tracefile.Writer.create ~chunk_bytes ~options path in
      let _r =
        Driver.run_workload ~options ~event_sink:(Tracefile.Writer.sink w)
          (Helpers.find_workload "blackscholes") Workloads.Scale.Simsmall
      in
      Tracefile.Writer.close_names Dbi.Names.empty w;
      Alcotest.(check bool) "entries flowed" true (Tracefile.Writer.entries w > 10_000);
      (* the writer may exceed the target only by the one entry that
         crossed the threshold *)
      Alcotest.(check bool)
        (Printf.sprintf "peak buffer %d <= chunk + 64" (Tracefile.Writer.peak_buffer_bytes w))
        true
        (Tracefile.Writer.peak_buffer_bytes w <= chunk_bytes + 64))

let test_dedup_size_ratio () =
  (* acceptance bound: binary >= 4x smaller than its text dump on dedup
     simsmall *)
  let options =
    Sigil.Options.(with_events { default with max_chunks = Some 300 })
  in
  let entries = run_entries ~options "dedup" in
  let size path = In_channel.with_open_bin path In_channel.length |> Int64.to_int in
  Helpers.with_temp ~ext:".txt" (fun txt ->
      Helpers.with_temp ~ext:".tf" (fun tf ->
          ignore (write_entries entries tf : Tracefile.Writer.t);
          ignore (Tracefile.Convert.binary_to_text tf txt : int);
          let ratio = float_of_int (size txt) /. float_of_int (size tf) in
          Alcotest.(check bool)
            (Printf.sprintf "text/binary ratio %.2f >= 4" ratio)
            true (ratio >= 4.0)))

(* ---------------------------------------------------------------- *)
(* Byte identity                                                    *)
(* ---------------------------------------------------------------- *)

(* MD5 of the binary trace (streamed through the writer, closed with the
   run's symbol and context tables) and of its text dump, in events mode
   at simsmall. Pinned before the codec, the fragment flush and the
   critical-path DAG moved to int arrays, the text MD5 when the run wrote
   its text itself: every byte must stay put, and the dump must print
   exactly the entries the run produced. *)
let trace_goldens =
  [
    ("canneal", "1ff93e4046fd690cf4c2e959e129428d", "ca2fe7e24a13c1a950e39040409dcf78");
    ("dedup", "9746db53614594443d687b0bc1be16d6", "c196e752c96b880bc4a49cc9e66ce647");
    ("streamcluster", "4285cb2f08534a1b726869b2ea209ae9", "8fb30e11c34e7020c7e4b6d849dac457");
    ("libquantum", "842fb812efc41ac5de88a0e73247f6ab", "dbb53e7be954c44edd1550f61611f867");
  ]

let file_md5 path = Digest.to_hex (Digest.file path)

let test_trace_goldens () =
  List.iter
    (fun (name, binary_md5, text_md5) ->
      Helpers.with_temp ~ext:".tf" (fun tf ->
          Helpers.with_temp ~ext:".txt" (fun txt ->
              let options = Sigil.Options.(with_events default) in
              let w = Tracefile.Writer.create ~options tf in
              let r =
                Driver.run_workload ~options ~event_sink:(Tracefile.Writer.sink w)
                  (Helpers.find_workload name) Workloads.Scale.Simsmall
              in
              let m = r.Driver.machine in
              Tracefile.Writer.close_names
                (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m))
                w;
              ignore (Tracefile.Convert.binary_to_text tf txt : int);
              Alcotest.(check string) (name ^ " binary trace") binary_md5 (file_md5 tf);
              Alcotest.(check string) (name ^ " text log") text_md5 (file_md5 txt))))
    trace_goldens

(* 200 calls open at once inside one chunk, past the codec's initial
   frame stack: each level computes, consumes from its parent, and
   resumes after its child returns (the stackpos case). *)
(* pinned with the list-based frame stack the arrays replaced *)
let deep_nesting_golden = ("b226cb9bddb0f6abf0ec36e39b8cfc5b", 2348)

let test_deep_nesting_roundtrip () =
  let depth = 200 in
  let entries = ref [] in
  let add e = entries := e :: !entries in
  for d = 1 to depth do
    add (Event_log.Call { ctx = d; call = d * 3 });
    add (Event_log.Comp { ctx = d; call = d * 3; int_ops = d; fp_ops = 0 });
    add
      (Event_log.Xfer
         {
           src_ctx = d - 1;
           src_call = (d - 1) * 3;
           dst_ctx = d;
           dst_call = d * 3;
           bytes = 8;
           unique_bytes = 8;
         })
  done;
  for d = depth downto 1 do
    add (Event_log.Ret { ctx = d; call = d * 3 });
    add (Event_log.Comp { ctx = d - 1; call = (d - 1) * 3; int_ops = 1; fp_ops = d })
  done;
  let entries = List.rev !entries in
  let buf = Buffer.create 1024 in
  let d = Tracefile.Frame.delta () in
  List.iter (Tracefile.Frame.encode_entry d buf) entries;
  let b = Buffer.to_bytes buf in
  (* an encoder and decoder that lose the same frame still round-trip:
     the bytes themselves are pinned *)
  Alcotest.(check (pair string int))
    "encoding unchanged" deep_nesting_golden
    (Digest.to_hex (Digest.bytes b), Bytes.length b);
  let d' = Tracefile.Frame.delta () in
  let pos = ref 0 in
  let decoded =
    List.map
      (fun _ -> Event_log.copy (Tracefile.Frame.decode_entry d' b ~len:(Bytes.length b) ~pos))
      entries
  in
  Alcotest.(check int) "consumed all" (Bytes.length b) !pos;
  Alcotest.(check (list entry)) "codec roundtrip" entries decoded;
  Helpers.with_temp ~ext:".tf" (fun path ->
      let w = write_entries entries path in
      Alcotest.(check int) "one chunk" 1 (Tracefile.Writer.chunks w);
      Alcotest.(check (list entry)) "file roundtrip" entries (Helpers.read_entries path))

(* Words allocated straight in the major heap so far: major less promoted. *)
let direct_major () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* The writer encodes straight into its chunk buffer: over entries built
   beforehand, [Writer.add] allocates at most 0.01 minor words per entry.
   Every section is checksummed and written from one payload buffer made
   at [create]: writing canneal's trace, closing included, allocates less
   than two chunks' worth of words straight in the major heap, whatever
   its chunk count. *)
let test_writer_allocation_bound () =
  let options = Sigil.Options.(with_events default) in
  let entries = Array.of_list (run_entries ~options "canneal") in
  Helpers.with_temp ~ext:".tf" (fun path ->
      let w = Tracefile.Writer.create ~options path in
      let major = direct_major () in
      let before = Gc.minor_words () in
      for i = 0 to Array.length entries - 1 do
        Tracefile.Writer.add w entries.(i)
      done;
      let words = Gc.minor_words () -. before in
      Tracefile.Writer.close_names Dbi.Names.empty w;
      let major = direct_major () -. major in
      let per_entry = words /. float_of_int (Array.length entries) in
      if per_entry > 0.01 then
        Alcotest.failf "Writer.add allocates %.4f minor words per entry over %d entries (bound 0.01)"
          per_entry (Array.length entries);
      let buffers = 2 * Tracefile.Frame.default_chunk_bytes / 8 in
      if major > float_of_int buffers then
        Alcotest.failf
          "the writer allocates %.0f words straight in the major heap over %d chunks (bound %d: \
           two chunk buffers)"
          major (Tracefile.Writer.chunks w) buffers)

(* Decoding lends the scratch entries of one codec state, which serves
   every chunk of the pass, instead of allocating an entry per entry: a
   [Reader.iter] pass over canneal's trace allocates at most 0.01 minor
   words per entry. Payloads go to one reused buffer: the pass allocates
   less than two chunks' worth of words straight in the major heap. *)
let test_reader_allocation_bound () =
  Helpers.with_temp ~ext:".tf" (fun path ->
      let options = Sigil.Options.(with_events default) in
      let w = Tracefile.Writer.create ~options path in
      let _r =
        Driver.run_workload ~options ~event_sink:(Tracefile.Writer.sink w)
          (Helpers.find_workload "canneal") Workloads.Scale.Simsmall
      in
      Tracefile.Writer.close_names Dbi.Names.empty w;
      let rd = Tracefile.Reader.open_file path in
      Fun.protect
        ~finally:(fun () -> Tracefile.Reader.close rd)
        (fun () ->
          let n = ref 0 in
          let major = direct_major () in
          let before = Gc.minor_words () in
          Tracefile.Reader.iter rd (fun _ -> incr n);
          let words = Gc.minor_words () -. before in
          let major = direct_major () -. major in
          let per_entry = words /. float_of_int !n in
          if per_entry > 0.01 then
            Alcotest.failf
              "Reader.iter allocates %.4f minor words per entry over %d entries (bound 0.01)"
              per_entry !n;
          (* the trace spans 17 chunks; a pass decodes them all in one buffer *)
          let buffers = 2 * Tracefile.Frame.default_chunk_bytes / 8 in
          if major > float_of_int buffers then
            Alcotest.failf
              "Reader.iter allocates %.0f words straight in the major heap over %d chunks \
               (bound %d: two chunk buffers)"
              major (Tracefile.Reader.chunk_count rd) buffers))

(* The lending contract end to end. For every PARSEC clone at simsmall, a
   live sink that keeps [copy e] ends up with the stream it printed during
   each call, and a decode of the binary trace the same run wrote, copying
   each entry, gives that stream back. A producer that refilled an entry
   a consumer had kept, or a copy that missed a field, shows here. *)
let test_lend_contract () =
  let check_stream what expected got =
    let rec go i = function
      | [], [] -> ()
      | e :: es, g :: gs ->
        if String.equal e g then go (i + 1) (es, gs)
        else Alcotest.failf "%s: entry %d is %S, expected %S" what i g e
      | _ ->
        Alcotest.failf "%s: %d entries, expected %d" what (List.length got)
          (List.length expected)
    in
    go 0 (expected, got)
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let name = w.Workloads.Workload.name in
      Helpers.with_temp ~ext:".tf" (fun path ->
          let options = Sigil.Options.(with_events default) in
          let wr = Tracefile.Writer.create ~options path in
          let kept = ref [] and printed = ref [] in
          let _r =
            Driver.run_workload ~options
              ~event_sink:(fun e ->
                kept := Event_log.copy e :: !kept;
                printed := Event_log.entry_to_string e :: !printed;
                Tracefile.Writer.add wr e)
              w Workloads.Scale.Simsmall
          in
          Tracefile.Writer.close_names Dbi.Names.empty wr;
          let printed = List.rev !printed in
          let strings = List.map Event_log.entry_to_string in
          check_stream (name ^ " kept copies") printed (strings (List.rev !kept));
          check_stream (name ^ " decoded copies") printed (strings (Helpers.read_entries path))))
    Workloads.Suite.parsec

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  ( "tracefile",
    [
      ( "varint",
        [
          Alcotest.test_case "unit cases" `Quick test_varint_cases;
          Alcotest.test_case "truncated" `Quick test_varint_truncated;
        ] );
      ( "codec",
        [
          qt codec_roundtrip;
          Alcotest.test_case "200 nested calls in one chunk" `Quick test_deep_nesting_roundtrip;
        ] );
      ( "file",
        [
          Alcotest.test_case "roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "multi-chunk + validate" `Quick test_multichunk_roundtrip;
          qt test_qcheck_file_roundtrip;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "truncated file" `Quick test_truncated_file;
          Alcotest.test_case "corrupted crc" `Quick test_corrupted_crc;
          Alcotest.test_case "short chunk after a long one" `Quick test_short_chunk_after_long;
          Alcotest.test_case "not a tracefile" `Quick test_not_a_tracefile;
          Alcotest.test_case "crafted table counts" `Quick test_crafted_counts;
          Alcotest.test_case "context table checked at open" `Quick test_context_table_checked;
          Alcotest.test_case "one kind per file" `Quick test_kind_mismatch;
        ] );
      ("convert", [ Alcotest.test_case "binary->text dump" `Quick test_dump ]);
      ( "runs",
        [
          Alcotest.test_case "embedded tables" `Slow test_embedded_tables;
          Alcotest.test_case "sink memory bound" `Slow test_sink_memory_bound;
          Alcotest.test_case "dedup size ratio" `Slow test_dedup_size_ratio;
          Alcotest.test_case "trace goldens" `Slow test_trace_goldens;
          Alcotest.test_case "writer allocation bound" `Slow test_writer_allocation_bound;
          Alcotest.test_case "reader allocation bound" `Slow test_reader_allocation_bound;
          Alcotest.test_case "lend contract" `Slow test_lend_contract;
        ] );
    ] )
