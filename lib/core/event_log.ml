type entry =
  | Call of { ctx : Dbi.Context.id; call : int }
  | Comp of { ctx : Dbi.Context.id; call : int; int_ops : int; fp_ops : int }
  | Xfer of {
      src_ctx : Dbi.Context.id;
      src_call : int;
      dst_ctx : Dbi.Context.id;
      dst_call : int;
      bytes : int;
      unique_bytes : int;
    }
  | Ret of { ctx : Dbi.Context.id; call : int }

type sink = entry -> unit

let entry_to_string = function
  | Call { ctx; call } -> Printf.sprintf "C %d %d" ctx call
  | Comp { ctx; call; int_ops; fp_ops } -> Printf.sprintf "O %d %d %d %d" ctx call int_ops fp_ops
  | Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes; unique_bytes } ->
    Printf.sprintf "X %d %d %d %d %d %d" src_ctx src_call dst_ctx dst_call bytes unique_bytes
  | Ret { ctx; call } -> Printf.sprintf "R %d %d" ctx call

let entry_of_string line =
  let fail () = failwith ("Event_log: malformed record: " ^ line) in
  let ints rest = List.map (fun s -> match int_of_string_opt s with Some i -> i | None -> fail ()) rest in
  match String.split_on_char ' ' (String.trim line) with
  | "C" :: rest ->
    (match ints rest with
    | [ ctx; call ] -> Call { ctx; call }
    | _ -> fail ())
  | "O" :: rest ->
    (match ints rest with
    | [ ctx; call; int_ops; fp_ops ] -> Comp { ctx; call; int_ops; fp_ops }
    | _ -> fail ())
  | "X" :: rest ->
    (match ints rest with
    | [ src_ctx; src_call; dst_ctx; dst_call; bytes; unique_bytes ] ->
      Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes; unique_bytes }
    | _ -> fail ())
  | "R" :: rest ->
    (match ints rest with
    | [ ctx; call ] -> Ret { ctx; call }
    | _ -> fail ())
  | _ -> fail ()

let write_file path f =
  Dbi.Atomic_file.write path (fun oc ->
      f (fun e ->
          output_string oc (entry_to_string e);
          output_char oc '\n'))

let iter_file path f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line ->
          if String.trim line <> "" then f (entry_of_string line);
          loop ()
        | exception End_of_file -> ()
      in
      loop ())
