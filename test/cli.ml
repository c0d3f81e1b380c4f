(* The built CLIs, shared by the tests that run them: they sit next to the
   test executables' directory in the build tree, under [dir] ("bin" by
   default; the bench harness is [exe ~dir:"bench" "main"]). *)

let exe ?(dir = "bin") name =
  Filename.concat (Filename.dirname Sys.executable_name) ("../" ^ dir ^ "/" ^ name ^ ".exe")

(* [run ?dir name args] runs CLI [name] and returns its exit code, its
   stdout and its non-empty stderr lines. *)
let run ?dir name args =
  let out = Filename.temp_file name ".out" and err = Filename.temp_file name ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote (exe ?dir name)) args
             (Filename.quote out) (Filename.quote err))
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (code, read out, read err |> String.split_on_char '\n' |> List.filter (( <> ) "")))

(* [stderr ?dir name args] is [run] without the stdout. *)
let stderr ?dir name args =
  let code, _, lines = run ?dir name args in
  (code, lines)
