open Sigil

let feed_episode sink ~reader ~reads ~first ~last =
  sink.Shadow.on_episode_end ~reader ~reads ~first ~last

let feed_version sink ~producer ~nonunique = sink.Shadow.on_version_end ~producer ~nonunique

let test_episode_accumulation () =
  let r = Reuse.create () in
  let sink = Reuse.sink r in
  feed_episode sink ~reader:3 ~reads:1 ~first:0 ~last:0;
  feed_episode sink ~reader:3 ~reads:4 ~first:100 ~last:1600;
  feed_episode sink ~reader:3 ~reads:2 ~first:200 ~last:700;
  let fr = Reuse.fn_reuse r 3 in
  Alcotest.(check int) "episodes" 3 fr.Reuse.episodes;
  Alcotest.(check int) "reused episodes" 2 fr.Reuse.reused_episodes;
  Alcotest.(check int) "reuse reads" 4 fr.Reuse.reuse_reads;
  Alcotest.(check int) "lifetime sum" 2000 fr.Reuse.lifetime_sum;
  Alcotest.(check (float 1e-9)) "avg lifetime" 1000.0 (Reuse.avg_lifetime r 3)

let test_histogram_binning () =
  let r = Reuse.create () in
  let sink = Reuse.sink r in
  feed_episode sink ~reader:1 ~reads:2 ~first:0 ~last:999;
  (* bin 0 *)
  feed_episode sink ~reader:1 ~reads:2 ~first:0 ~last:1000;
  (* bin 1000 *)
  feed_episode sink ~reader:1 ~reads:2 ~first:500 ~last:3700;
  (* 3200 -> bin 3000 *)
  Alcotest.(check (list (pair int int)))
    "bins" [ (0, 1); (1000, 1); (3000, 1) ] (Reuse.histogram r 1)

let test_single_read_episodes_not_in_histogram () =
  let r = Reuse.create () in
  let sink = Reuse.sink r in
  feed_episode sink ~reader:1 ~reads:1 ~first:5 ~last:5;
  Alcotest.(check (list (pair int int))) "empty histogram" [] (Reuse.histogram r 1);
  Alcotest.(check (float 1e-9)) "avg 0" 0.0 (Reuse.avg_lifetime r 1)

let test_version_bins () =
  let r = Reuse.create () in
  let sink = Reuse.sink r in
  feed_version sink ~producer:1 ~nonunique:0;
  feed_version sink ~producer:1 ~nonunique:1;
  feed_version sink ~producer:2 ~nonunique:9;
  feed_version sink ~producer:2 ~nonunique:10;
  feed_version sink ~producer:2 ~nonunique:500;
  let b = Reuse.version_bins r in
  Alcotest.(check int) "zero" 1 b.Reuse.zero;
  Alcotest.(check int) "1-9" 2 b.Reuse.low;
  Alcotest.(check int) ">9" 2 b.Reuse.high

let test_contexts_listing () =
  let r = Reuse.create () in
  let sink = Reuse.sink r in
  feed_episode sink ~reader:7 ~reads:1 ~first:0 ~last:0;
  feed_episode sink ~reader:2 ~reads:1 ~first:0 ~last:0;
  Alcotest.(check (list int)) "ascending" [ 2; 7 ] (Reuse.contexts r)

let test_empty_context () =
  let r = Reuse.create () in
  let fr = Reuse.fn_reuse r 42 in
  Alcotest.(check int) "no episodes" 0 fr.Reuse.episodes;
  Alcotest.(check (list (pair int int))) "no histogram" [] (Reuse.histogram r 42)

let qcheck_histogram_counts_match =
  QCheck.Test.make ~name:"histogram total = reused episodes" ~count:200
    QCheck.(list (pair (int_range 1 5) (int_range 0 100_000)))
    (fun eps ->
      let r = Reuse.create () in
      let sink = Reuse.sink r in
      List.iter
        (fun (reads, lifetime) ->
          feed_episode sink ~reader:1 ~reads ~first:0 ~last:lifetime)
        eps;
      let hist_total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Reuse.histogram r 1) in
      hist_total = (Reuse.fn_reuse r 1).Reuse.reused_episodes)

let suite =
  ( "reuse",
    [
      ( "reuse",
        [
          Alcotest.test_case "episode accumulation" `Quick test_episode_accumulation;
          Alcotest.test_case "histogram binning" `Quick test_histogram_binning;
          Alcotest.test_case "single-read episodes excluded" `Quick
            test_single_read_episodes_not_in_histogram;
          Alcotest.test_case "version bins" `Quick test_version_bins;
          Alcotest.test_case "contexts listing" `Quick test_contexts_listing;
          Alcotest.test_case "empty context" `Quick test_empty_context;
          QCheck_alcotest.to_alcotest qcheck_histogram_counts_match;
        ] );
    ] )
