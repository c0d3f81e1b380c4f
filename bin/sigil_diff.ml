(* Compare saved Sigil profiles (from sigil_run --save-profile): which call
   paths' computation or true communication moved, and which
   communication edges. Each side may be a comma-separated list of
   profiles — e.g. the per-shard outputs of a domain-parallel suite run —
   merged by call path before diffing; the merge is a commutative sum, so
   shard order never changes the report. *)

open Cmdliner

let run before after limit all =
  Cli_common.guard @@ fun () ->
  let load = List.map (fun path -> fst (Tracefile.Profile_file.load path)) in
  let diff = Analysis.Compare.diff_many ~before:(load before) ~after:(load after) in
  let diff = if all then diff else Analysis.Compare.changed diff in
  if Analysis.Compare.is_empty diff then print_endline "profiles are identical"
  else Analysis.Compare.pp ~limit Format.std_formatter diff

let cmd =
  let profiles n docv doc = Arg.(required & pos n (some (list string)) None & info [] ~docv ~doc) in
  let before = profiles 0 "BEFORE" "Baseline profile (or comma-separated shard profiles)." in
  let after = profiles 1 "AFTER" "New profile (or comma-separated shard profiles)." in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Include unchanged call paths and edges.") in
  Cmd.v
    (Cmd.info "sigil_diff" ~doc:"Diff two saved Sigil profiles by call path and edge")
    Term.(const run $ before $ after $ Cli_common.limit_arg $ all)

let () = exit (Cmd.eval cmd)
