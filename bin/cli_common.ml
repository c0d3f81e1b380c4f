(* Shared cmdliner terms for the sigil_* binaries. The readers (sigil_partition,
   sigil_reuse, sigil_critpath, sigil_diff) link this module but neither the
   workloads nor the driver: only sigil_run and sigil_trace run a workload,
   with the terms of Cli_run. *)

open Cmdliner

(* [checked conv ok what] is [conv] restricted to values satisfying [ok]:
   anything else is a usage error at parse time (exit 124), so the library
   never sees it. *)
let checked conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let pos_int = checked Arg.int (fun n -> n > 0) "a positive integer"

let limit_arg =
  let doc = "Maximum rows to print." in
  Arg.(value & opt pos_int 25 & info [ "n"; "limit" ] ~docv:"N" ~doc)

let file_arg doc = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

(* [load_profile path] is the profile saved at [path], the workload its
   run profiled and the title of its reports, "workload (scale)"; a
   profile saved without its run is named by its path. *)
let load_profile path =
  match Tracefile.Profile_file.load path with
  | snap, Some { workload; scale } -> (snap, workload, Printf.sprintf "%s (%s)" workload scale)
  | snap, None -> (snap, path, path)

(* [guard f] runs the command body [f ()] with the load-path failure modes
   every sigil_* binary shares mapped to a one-line stderr message and
   exit 2: structural trace damage (with its file offset; the reader
   reports a cut-off varint as such) and unreadable files. Anything else
   is a real bug and keeps its backtrace. *)
let guard f =
  try f () with
  | Tracefile.Frame.Corrupt { offset; reason } ->
    Format.eprintf "error: corrupt trace at offset %d: %s@." offset reason;
    exit 2
  | Sys_error e | Failure e ->
    Format.eprintf "error: %s@." e;
    exit 2
