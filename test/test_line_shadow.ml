open Sigil

let test_line_granularity () =
  let t = Line_shadow.create ~line_size:64 () in
  Line_shadow.touch t ~now:0 0 8;
  Line_shadow.touch t ~now:1 32 8;
  (* same line *)
  Line_shadow.touch t ~now:2 64 8;
  (* next line *)
  Alcotest.(check int) "two lines" 2 (Line_shadow.lines t);
  match Line_shadow.records t with
  | [ a; b ] ->
    Alcotest.(check int) "line 0 twice" 2 a.Line_shadow.accesses;
    Alcotest.(check int) "line 0 reuse" 1 (Line_shadow.reuse_count a);
    Alcotest.(check int) "line 1 once" 1 b.Line_shadow.accesses;
    Alcotest.(check (pair int int)) "timestamps" (0, 1) (a.Line_shadow.first, a.Line_shadow.last)
  | _ -> Alcotest.fail "expected two records"

let test_straddling_access () =
  let t = Line_shadow.create ~line_size:64 () in
  Line_shadow.touch t ~now:0 60 8;
  Alcotest.(check int) "straddle touches both" 2 (Line_shadow.lines t)

let test_bins () =
  let t = Line_shadow.create ~line_size:64 () in
  let touch_n line n =
    for i = 1 to n do
      Line_shadow.touch t ~now:i (line * 64) 4
    done
  in
  touch_n 0 1;
  (* reuse 0: <10 *)
  touch_n 1 50;
  (* reuse 49: <100 *)
  touch_n 2 500;
  (* <1000 *)
  touch_n 3 5000;
  (* <10000 *)
  touch_n 4 20000;
  (* >10000 *)
  let b = Line_shadow.bins t in
  Alcotest.(check int) "<10" 1 b.Line_shadow.under_10;
  Alcotest.(check int) "<100" 1 b.Line_shadow.under_100;
  Alcotest.(check int) "<1000" 1 b.Line_shadow.under_1000;
  Alcotest.(check int) "<10000" 1 b.Line_shadow.under_10000;
  Alcotest.(check int) ">10000" 1 b.Line_shadow.over_10000

let test_fractions_sum_to_one () =
  let t = Line_shadow.create () in
  Line_shadow.touch t ~now:0 0 8;
  Line_shadow.touch t ~now:0 64 8;
  let a, b, c, d, e = Line_shadow.bin_fractions t in
  Alcotest.(check (float 1e-9)) "sum 1" 1.0 (a +. b +. c +. d +. e)

let test_empty_fractions () =
  let t = Line_shadow.create () in
  let a, b, c, d, e = Line_shadow.bin_fractions t in
  Alcotest.(check (float 1e-9)) "all zero" 0.0 (a +. b +. c +. d +. e)

let test_records_sorted () =
  let t = Line_shadow.create ~line_size:64 () in
  Line_shadow.touch t ~now:0 640 8;
  Line_shadow.touch t ~now:0 0 8;
  Line_shadow.touch t ~now:0 320 8;
  let addrs = List.map (fun r -> r.Line_shadow.line_addr) (Line_shadow.records t) in
  Alcotest.(check (list int)) "ascending" [ 0; 5; 10 ] addrs

let test_line_size_validation () =
  Alcotest.check_raises "non pow2"
    (Invalid_argument "Line_shadow.create: line size must be a positive power of two") (fun () ->
      ignore (Line_shadow.create ~line_size:48 ()))

let suite =
  ( "line_shadow",
    [
      ( "line_shadow",
        [
          Alcotest.test_case "line granularity" `Quick test_line_granularity;
          Alcotest.test_case "straddling access" `Quick test_straddling_access;
          Alcotest.test_case "bins" `Quick test_bins;
          Alcotest.test_case "fractions sum to one" `Quick test_fractions_sum_to_one;
          Alcotest.test_case "empty fractions" `Quick test_empty_fractions;
          Alcotest.test_case "records sorted" `Quick test_records_sorted;
          Alcotest.test_case "line size validation" `Quick test_line_size_validation;
        ] );
    ] )
