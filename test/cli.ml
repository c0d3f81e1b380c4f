(* The built CLIs, shared by the tests that run them: they sit next to the
   test executables' directory in the build tree, under [dir] ("bin" by
   default; the bench harness is [exe ~dir:"bench" "main"]). *)

let exe ?(dir = "bin") name =
  Filename.concat (Filename.dirname Sys.executable_name) ("../" ^ dir ^ "/" ^ name ^ ".exe")

(* [stderr ?dir name args] runs CLI [name] with stdout discarded and
   returns its exit code and its non-empty stderr lines. *)
let stderr ?dir name args =
  let err = Filename.temp_file name ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote (exe ?dir name)) args
             (Filename.quote err))
      in
      let lines =
        In_channel.with_open_bin err In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      (code, lines))
