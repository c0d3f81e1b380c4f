(* Reuse_report (the rows behind Figs 8-11): exact golden byte-reuse
   breakdowns, top-reuser tables and lifetime histograms for two
   workloads, plus the per-context accounting the paper's conv_gen vs
   conv_gen(1) distinction depends on. All inputs are deterministic, so
   every value here is exact — a change is a behaviour change. *)

let run_reuse name =
  let options = Sigil.Options.(with_reuse default) in
  Driver.sigil (Driver.run_workload ~options (Helpers.find_workload name) Workloads.Scale.Simsmall)

(* one run per workload, shared across the cases below *)
let canneal = lazy (run_reuse "canneal")
let bodytrack = lazy (run_reuse "bodytrack")

let close_to = Alcotest.float 1e-6

(* ---------------------------------------------------------------- *)
(* Fig 8: byte-reuse breakdown                                      *)
(* ---------------------------------------------------------------- *)

let test_byte_breakdown_canneal () =
  let tool = Lazy.force canneal in
  let bins = Sigil.Reuse.version_bins (Sigil.Tool.reuse tool) in
  Alcotest.(check int) "zero-reuse elements" 946_080 bins.Sigil.Reuse.zero;
  Alcotest.(check int) "1-9 reuse elements" 34_592 bins.Sigil.Reuse.low;
  Alcotest.(check int) ">9 reuse elements" 40_192 bins.Sigil.Reuse.high;
  let bd = Analysis.Reuse_report.byte_breakdown tool in
  Alcotest.(check int) "elements totals the bins" 1_020_864 bd.Analysis.Reuse_report.elements;
  Alcotest.check close_to "zero fraction"
    (946_080.0 /. 1_020_864.0) bd.Analysis.Reuse_report.zero;
  Alcotest.check close_to "fractions sum to 1" 1.0
    (bd.Analysis.Reuse_report.zero +. bd.Analysis.Reuse_report.one_to_nine
   +. bd.Analysis.Reuse_report.over_nine)

let test_byte_breakdown_bodytrack () =
  let bd = Analysis.Reuse_report.byte_breakdown (Lazy.force bodytrack) in
  Alcotest.(check int) "elements" 210_976 bd.Analysis.Reuse_report.elements;
  Alcotest.check close_to "zero fraction" (207_840.0 /. 210_976.0)
    bd.Analysis.Reuse_report.zero;
  Alcotest.check close_to "no 1-9 band" 0.0 bd.Analysis.Reuse_report.one_to_nine;
  Alcotest.check close_to ">9 fraction" (3_136.0 /. 210_976.0)
    bd.Analysis.Reuse_report.over_nine

(* ---------------------------------------------------------------- *)
(* Fig 9: top re-users                                              *)
(* ---------------------------------------------------------------- *)

let test_top_reusers_canneal () =
  let tool = Lazy.force canneal in
  match Analysis.Reuse_report.top_reusers ~n:5 tool with
  | first :: second :: _ ->
    Alcotest.(check string) "top label" "annealer_thread::Run"
      first.Analysis.Reuse_report.label;
    Alcotest.(check int) "top reuse reads" 974_016 first.Analysis.Reuse_report.reuse_reads;
    Alcotest.(check int) "top unique bytes" 145_984 first.Analysis.Reuse_report.unique_bytes;
    Alcotest.check (Alcotest.float 1e-3) "top avg lifetime" 760_382.461806
      first.Analysis.Reuse_report.avg_lifetime;
    Alcotest.(check string) "second label" "netlist::swap_locations"
      second.Analysis.Reuse_report.label;
    Alcotest.(check int) "second reuse reads" 32 second.Analysis.Reuse_report.reuse_reads;
    Alcotest.check close_to "second avg lifetime" 4.0
      second.Analysis.Reuse_report.avg_lifetime;
    (* share = unique bytes over the benchmark's unique total *)
    let unique_total, _ = Sigil.Profile.totals (Sigil.Tool.profile tool) in
    Alcotest.check close_to "share is unique_bytes / unique_total"
      (float_of_int first.Analysis.Reuse_report.unique_bytes /. float_of_int unique_total)
      first.Analysis.Reuse_report.unique_share;
    Alcotest.(check bool) "rows sorted by reuse reads" true
      (first.Analysis.Reuse_report.reuse_reads >= second.Analysis.Reuse_report.reuse_reads)
  | rows -> Alcotest.failf "expected >= 2 reusing contexts, got %d" (List.length rows)

let test_top_reusers_respects_n () =
  let tool = Lazy.force canneal in
  Alcotest.(check int) "n = 1 returns one row" 1
    (List.length (Analysis.Reuse_report.top_reusers ~n:1 tool))

(* the paper distinguishes several contexts of one function with (k)
   suffixes; bodytrack's dominant function runs in two contexts *)
let test_context_labels_bodytrack () =
  let tool = Lazy.force bodytrack in
  match Analysis.Reuse_report.top_reusers ~n:5 tool with
  | first :: second :: _ ->
    Alcotest.(check string) "dominant context keeps the bare name"
      "ImageMeasurements::ImageErrorInside" first.Analysis.Reuse_report.label;
    Alcotest.(check string) "sibling context gets a (1) suffix"
      "ImageMeasurements::ImageErrorInside(1)" second.Analysis.Reuse_report.label;
    Alcotest.(check int) "dominant reuse reads" 380_928
      first.Analysis.Reuse_report.reuse_reads;
    Alcotest.(check int) "sibling reuse reads" 47_616
      second.Analysis.Reuse_report.reuse_reads
  | rows -> Alcotest.failf "expected >= 2 rows, got %d" (List.length rows)

(* ---------------------------------------------------------------- *)
(* Figs 10-11: lifetime histograms                                  *)
(* ---------------------------------------------------------------- *)

let test_lifetime_histogram_canneal () =
  let tool = Lazy.force canneal in
  let snap = Sigil.Profile_io.snapshot_of_tool tool in
  Alcotest.(check int) "bin width" 1000 Sigil.Reuse.lifetime_bin_width;
  let hist = Analysis.Reuse_report.lifetime_histogram snap "annealer_thread::Run" in
  Alcotest.(check int) "bin count" 1457 (List.length hist);
  Alcotest.(check int) "total reused bytes" 92_160
    (List.fold_left (fun acc (_, c) -> acc + c) 0 hist);
  Alcotest.(check (pair int int)) "first bin" (0, 224) (List.hd hist);
  Alcotest.(check (pair int int)) "last bin" (2_462_000, 64) (List.hd (List.rev hist));
  Alcotest.(check bool) "bins ascending" true
    (List.sort compare hist = hist);
  (* one context only: the dominant-context histogram is the merged one *)
  Alcotest.(check int) "single context" 1
    (List.length (Analysis.Reuse_report.find_contexts snap "annealer_thread::Run"));
  Alcotest.(check (list (pair int int))) "dominant = merged for one context" hist
    (Analysis.Reuse_report.lifetime_histogram_dominant snap "annealer_thread::Run")

let test_lifetime_histogram_bodytrack () =
  let tool = Lazy.force bodytrack in
  let snap = Sigil.Profile_io.snapshot_of_tool tool in
  let fn = "ImageMeasurements::ImageErrorInside" in
  Alcotest.(check int) "two contexts" 2
    (List.length (Analysis.Reuse_report.find_contexts snap fn));
  Alcotest.(check (list (pair int int))) "merged histogram sums both contexts"
    [ (16_000, 13_824) ]
    (Analysis.Reuse_report.lifetime_histogram snap fn);
  Alcotest.(check (list (pair int int))) "dominant context alone" [ (16_000, 12_288) ]
    (Analysis.Reuse_report.lifetime_histogram_dominant snap fn)

let test_unknown_function () =
  let tool = Lazy.force canneal in
  let snap = Sigil.Profile_io.snapshot_of_tool tool in
  Alcotest.(check (list (pair int int))) "unknown function: empty histogram" []
    (Analysis.Reuse_report.lifetime_histogram snap "no_such_function");
  Alcotest.(check (list (pair int int))) "unknown function: empty dominant" []
    (Analysis.Reuse_report.lifetime_histogram_dominant snap "no_such_function");
  Alcotest.(check bool) "unknown function: no contexts" true
    (Analysis.Reuse_report.find_contexts snap "no_such_function" = [])

let suite =
  ( "reuse_report",
    [
      ( "breakdown",
        [
          Alcotest.test_case "canneal byte breakdown" `Quick test_byte_breakdown_canneal;
          Alcotest.test_case "bodytrack byte breakdown" `Quick test_byte_breakdown_bodytrack;
        ] );
      ( "top reusers",
        [
          Alcotest.test_case "canneal table" `Quick test_top_reusers_canneal;
          Alcotest.test_case "limit respected" `Quick test_top_reusers_respects_n;
          Alcotest.test_case "bodytrack context labels" `Quick test_context_labels_bodytrack;
        ] );
      ( "lifetime histograms",
        [
          Alcotest.test_case "canneal" `Quick test_lifetime_histogram_canneal;
          Alcotest.test_case "bodytrack dominant vs merged" `Quick
            test_lifetime_histogram_bodytrack;
          Alcotest.test_case "unknown function" `Quick test_unknown_function;
        ] );
    ] )
