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

let call_bits = 40
let call_key ctx call = (ctx lsl call_bits) lor call
let key_ctx key = key lsr call_bits
let key_call key = key land ((1 lsl call_bits) - 1)

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
