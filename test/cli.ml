(* The built CLIs, shared by the tests that run them on inputs they craft
   through the library: they sit in bin/ next to the test executables'
   directory in the build tree. Checks that need no crafted input are cram
   tests under test/cli/. *)

let exe name =
  Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name ^ ".exe")

(* [stderr name args] runs CLI [name] and returns its exit code and its
   non-empty stderr lines. *)
let stderr name args =
  let err = Filename.temp_file name ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote (exe name)) args
             (Filename.quote err))
      in
      ( code,
        In_channel.with_open_bin err In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "") ))
