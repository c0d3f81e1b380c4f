type entry =
  | Call of { mutable ctx : Dbi.Context.id; mutable call : int }
  | Comp of {
      mutable ctx : Dbi.Context.id;
      mutable call : int;
      mutable int_ops : int;
      mutable fp_ops : int;
    }
  | Xfer of {
      mutable src_ctx : Dbi.Context.id;
      mutable src_call : int;
      mutable dst_ctx : Dbi.Context.id;
      mutable dst_call : int;
      mutable bytes : int;
      mutable unique_bytes : int;
    }
  | Ret of { mutable ctx : Dbi.Context.id; mutable call : int }

type sink = entry -> unit

let copy = function
  | Call { ctx; call } -> Call { ctx; call }
  | Comp { ctx; call; int_ops; fp_ops } -> Comp { ctx; call; int_ops; fp_ops }
  | Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes; unique_bytes } ->
    Xfer { src_ctx; src_call; dst_ctx; dst_call; bytes; unique_bytes }
  | Ret { ctx; call } -> Ret { ctx; call }

(* One entry per constructor, refilled in place by the setters below. *)
type scratch = { s_call : entry; s_comp : entry; s_xfer : entry; s_ret : entry }

let scratch () =
  {
    s_call = Call { ctx = 0; call = 0 };
    s_comp = Comp { ctx = 0; call = 0; int_ops = 0; fp_ops = 0 };
    s_xfer =
      Xfer { src_ctx = 0; src_call = 0; dst_ctx = 0; dst_call = 0; bytes = 0; unique_bytes = 0 };
    s_ret = Ret { ctx = 0; call = 0 };
  }

let set_call s ~ctx ~call =
  (match s.s_call with
  | Call r ->
    r.ctx <- ctx;
    r.call <- call
  | _ -> assert false);
  s.s_call

let set_comp s ~ctx ~call ~int_ops ~fp_ops =
  (match s.s_comp with
  | Comp r ->
    r.ctx <- ctx;
    r.call <- call;
    r.int_ops <- int_ops;
    r.fp_ops <- fp_ops
  | _ -> assert false);
  s.s_comp

let set_xfer s ~src_ctx ~src_call ~dst_ctx ~dst_call ~bytes ~unique_bytes =
  (match s.s_xfer with
  | Xfer r ->
    r.src_ctx <- src_ctx;
    r.src_call <- src_call;
    r.dst_ctx <- dst_ctx;
    r.dst_call <- dst_call;
    r.bytes <- bytes;
    r.unique_bytes <- unique_bytes
  | _ -> assert false);
  s.s_xfer

let set_ret s ~ctx ~call =
  (match s.s_ret with
  | Ret r ->
    r.ctx <- ctx;
    r.call <- call
  | _ -> assert false);
  s.s_ret

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
