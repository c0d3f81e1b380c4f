(* A recording tool that logs every callback it receives. *)
type recorded =
  | Enter of string * int
  | Leave of string
  | Read of int * int
  | Write of int * int
  | Op of Dbi.Event.op_kind * int
  | Branch of bool
  | Finish

let recorder m log : Dbi.Tool.t =
  let name ctx =
    Dbi.Names.path
      (Dbi.Names.make ~symbols:(Dbi.Machine.symbols m) ~contexts:(Dbi.Machine.contexts m))
      ctx
  in
  {
    name = "recorder";
    on_enter = (fun ~ctx ~fn:_ ~call -> log := Enter (name ctx, call) :: !log);
    on_leave = (fun ~ctx ~fn:_ -> log := Leave (name ctx) :: !log);
    on_read = (fun ~ctx:_ ~addr ~size -> log := Read (addr, size) :: !log);
    on_write = (fun ~ctx:_ ~addr ~size -> log := Write (addr, size) :: !log);
    on_op = (fun ~ctx:_ ~kind ~count -> log := Op (kind, count) :: !log);
    on_branch = (fun ~ctx:_ ~taken -> log := Branch taken :: !log);
    on_finish = (fun () -> log := Finish :: !log);
  }

let fresh ?(call_overhead = 0) () = Dbi.Machine.create ~call_overhead ()

let test_event_dispatch () =
  let m = fresh () in
  let log = ref [] in
  Dbi.Machine.attach m (recorder m log);
  let _ctx = Dbi.Machine.enter m "main" in
  Dbi.Machine.op m Dbi.Event.Int_op 5;
  Dbi.Machine.read m 0x200000 8;
  Dbi.Machine.write m 0x200000 4;
  Dbi.Machine.branch m ~taken:true;
  Dbi.Machine.leave m;
  Dbi.Machine.finish m;
  Alcotest.(check int) "seven events" 7 (List.length !log);
  match List.rev !log with
  | [ Enter ("main", 1); Op (Dbi.Event.Int_op, 5); Read (0x200000, 8); Write (0x200000, 4);
      Branch true; Leave "main"; Finish ] -> ()
  | _ -> Alcotest.fail "unexpected event sequence"

let test_clock_semantics () =
  let m = fresh () in
  let _ = Dbi.Machine.enter m "main" in
  Alcotest.(check int) "starts at zero" 0 (Dbi.Machine.now m);
  Dbi.Machine.op m Dbi.Event.Fp_op 10;
  Dbi.Machine.read m 0x200000 8;
  Dbi.Machine.write m 0x200000 8;
  Dbi.Machine.branch m ~taken:false;
  (* retired instructions: 10 ops + 2 accesses + 1 branch *)
  Alcotest.(check int) "clock" 13 (Dbi.Machine.now m);
  Dbi.Machine.leave m

let test_counters () =
  let m = fresh () in
  let _ = Dbi.Machine.enter m "main" in
  Dbi.Machine.op m Dbi.Event.Int_op 3;
  Dbi.Machine.op m Dbi.Event.Fp_op 4;
  Dbi.Machine.read m 0x200000 8;
  Dbi.Machine.read m 0x200010 4;
  Dbi.Machine.write m 0x200000 2;
  Dbi.Machine.leave m;
  let c = Dbi.Machine.counters m in
  Alcotest.(check int) "int ops" 3 c.Dbi.Machine.int_ops;
  Alcotest.(check int) "fp ops" 4 c.Dbi.Machine.fp_ops;
  Alcotest.(check int) "reads" 2 c.Dbi.Machine.reads;
  Alcotest.(check int) "read bytes" 12 c.Dbi.Machine.read_bytes;
  Alcotest.(check int) "written bytes" 2 c.Dbi.Machine.written_bytes;
  Alcotest.(check int) "calls" 1 c.Dbi.Machine.calls

let test_call_numbers () =
  let m = fresh () in
  let ctx1 = Dbi.Machine.enter m "main" in
  let ctx2 = Dbi.Machine.enter m "f" in
  Dbi.Machine.leave m;
  let ctx2' = Dbi.Machine.enter m "f" in
  Dbi.Machine.leave m;
  Dbi.Machine.leave m;
  Alcotest.(check int) "same context" ctx2 ctx2';
  Alcotest.(check int) "f called twice" 2 (Dbi.Machine.call_number m ctx2);
  Alcotest.(check int) "main once" 1 (Dbi.Machine.call_number m ctx1)

let test_current_ctx_tracking () =
  let m = fresh () in
  Alcotest.(check int) "root before main" Dbi.Context.root (Dbi.Machine.current_ctx m);
  let main = Dbi.Machine.enter m "main" in
  let f = Dbi.Machine.enter m "f" in
  Alcotest.(check int) "inside f" f (Dbi.Machine.current_ctx m);
  Dbi.Machine.leave m;
  Alcotest.(check int) "back in main" main (Dbi.Machine.current_ctx m);
  Dbi.Machine.leave m;
  Alcotest.(check int) "back at root" Dbi.Context.root (Dbi.Machine.current_ctx m)

let test_call_overhead_charged_to_caller () =
  let m = Dbi.Machine.create ~call_overhead:10 () in
  let ops_at = ref [] in
  Dbi.Machine.attach m
    {
      (Dbi.Tool.nop "spy") with
      on_op = (fun ~ctx ~kind:_ ~count -> ops_at := (ctx, count) :: !ops_at);
    };
  let main = Dbi.Machine.enter m "main" in
  let _f = Dbi.Machine.enter m "f" in
  Dbi.Machine.leave m;
  Dbi.Machine.leave m;
  (* overhead for entering main lands at root; for f at main *)
  Alcotest.(check (list (pair int int)))
    "caller charged" [ (Dbi.Context.root, 10); (main, 10) ] (List.rev !ops_at)

let test_syscall_pseudo_function () =
  let m = fresh () in
  let log = ref [] in
  Dbi.Machine.attach m (recorder m log);
  let _ = Dbi.Machine.enter m "main" in
  Dbi.Machine.syscall m "read" ~reads:[] ~writes:[ (0x300000, 20) ];
  Dbi.Machine.leave m;
  (match List.rev !log with
  | Enter ("main", _) :: Enter ("main/sys:read", _) :: rest ->
    let writes = List.filter (function Write _ -> true | _ -> false) rest in
    let bytes =
      List.fold_left (fun acc -> function Write (_, n) -> acc + n | _ -> acc) 0 writes
    in
    Alcotest.(check int) "20 bytes written in word chunks" 20 bytes;
    Alcotest.(check int) "3 chunked writes" 3 (List.length writes)
  | _ -> Alcotest.fail "expected syscall pseudo-function entry");
  Alcotest.(check int) "syscall counted" 1 (Dbi.Machine.counters m).Dbi.Machine.syscalls

let test_is_syscall_fn () =
  Alcotest.(check bool) "sys:read" true (Dbi.Machine.is_syscall_fn "sys:read");
  Alcotest.(check bool) "plain" false (Dbi.Machine.is_syscall_fn "read");
  Alcotest.(check bool) "prefix only" false (Dbi.Machine.is_syscall_fn "sys:")

let test_unbalanced_leave_rejected () =
  let m = fresh () in
  Alcotest.check_raises "leave on empty" (Invalid_argument "Machine.leave: empty call stack")
    (fun () -> Dbi.Machine.leave m)

let test_finish_requires_empty_stack () =
  let m = fresh () in
  let _ = Dbi.Machine.enter m "main" in
  Alcotest.check_raises "finish mid-call" (Invalid_argument "Machine.finish: calls still live")
    (fun () -> Dbi.Machine.finish m)

let test_finish_idempotent () =
  let m = fresh () in
  let finishes = ref 0 in
  Dbi.Machine.attach m
    { (Dbi.Tool.nop "spy") with on_finish = (fun () -> incr finishes) };
  Dbi.Machine.finish m;
  Dbi.Machine.finish m;
  Alcotest.(check int) "one finish" 1 !finishes

let test_stripped_machine () =
  let m = Dbi.Machine.create ~stripped:true ~call_overhead:0 () in
  let ctx = Dbi.Machine.enter m "secret" in
  let name =
    Dbi.Symbol.name (Dbi.Machine.symbols m) (Dbi.Context.fn (Dbi.Machine.contexts m) ctx)
  in
  Dbi.Machine.leave m;
  Alcotest.(check bool) "name hidden" true (String.length name >= 4 && String.sub name 0 4 = "???:")

let test_bad_event_args () =
  let m = fresh () in
  let _ = Dbi.Machine.enter m "main" in
  Alcotest.check_raises "zero-size read" (Invalid_argument "Machine.read: size must be positive")
    (fun () -> Dbi.Machine.read m 0x200000 0);
  Alcotest.check_raises "negative ops" (Invalid_argument "Machine.op: negative count") (fun () ->
      Dbi.Machine.op m Dbi.Event.Int_op (-1));
  Dbi.Machine.leave m

(* The guest call path allocates nothing: the call stack is two int
   columns, and a symbol or context lookup that hits boxes no option. Once
   a machine has seen its functions and its deepest stack, 10 k
   enter/leave pairs 100 deep (past the columns' first growth) allocate
   the same minor words as an empty measurement: none. *)
let test_calls_allocate_nothing () =
  let m = Dbi.Machine.create () in
  Dbi.Machine.attach m (Dbi.Tool.nop "nop");
  let rec nest d =
    if d > 0 then begin
      let (_ : Dbi.Context.id) = Dbi.Machine.enter m "f" in
      nest (d - 1);
      Dbi.Machine.leave m
    end
  in
  let pairs () =
    for _ = 1 to 100 do
      nest 100
    done
  in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  nest 100;
  let calls = (Dbi.Machine.counters m).Dbi.Machine.calls in
  let empty = minor_words ignore in
  let words = minor_words pairs in
  Alcotest.(check int) "10 k calls" 10_000 ((Dbi.Machine.counters m).Dbi.Machine.calls - calls);
  Alcotest.(check (float 0.)) "minor words for 10 k enter/leave pairs" 0. (words -. empty);
  Alcotest.(check int) "stack unwound" 0 (Dbi.Machine.stack_depth m)

(* Epoch hooks. [drive ?mid m] runs a fixed mix of ops and accesses,
   including one op that jumps past several multiples of 2^16, calling
   [mid m] once when the clock first passes 200_000; it returns every
   clock value an event left, in order. *)
let epoch = 1 lsl 16

let drive ?(mid = ignore) m =
  let clocks = ref [ Dbi.Machine.now m ] in
  let record () = clocks := Dbi.Machine.now m :: !clocks in
  let called = ref false in
  let _ = Dbi.Machine.enter m "main" in
  for i = 1 to 100_000 do
    Dbi.Machine.op m Dbi.Event.Int_op (1 + (i mod 13));
    record ();
    if i mod 3 = 0 then begin
      Dbi.Machine.read m 0x200000 8;
      record ()
    end;
    if i mod 5 = 0 then begin
      Dbi.Machine.write m 0x200008 4;
      record ()
    end;
    if i = 10_000 then begin
      Dbi.Machine.op m Dbi.Event.Fp_op (3 * epoch + 17);
      record ()
    end;
    if (not !called) && Dbi.Machine.now m > 200_000 then begin
      called := true;
      mid m
    end
  done;
  Dbi.Machine.leave m;
  List.rev !clocks

let hooked ?mid () =
  let m = fresh () in
  let seen = ref [] in
  Dbi.Machine.on_epoch m (fun m -> seen := Dbi.Machine.now m :: !seen);
  let clocks = drive ?mid m in
  (clocks, List.rev !seen)

(* The first value after each multiple of 2^16 that [clocks] crosses,
   once per event however many multiples it crosses. *)
let epoch_firsts clocks =
  let rec go = function
    | prev :: (c :: _ as rest) -> if c / epoch > prev / epoch then c :: go rest else go rest
    | [ _ ] | [] -> []
  in
  go clocks

let test_epoch_hook_clock () =
  let clocks, seen = hooked () in
  let _, again = hooked () in
  Alcotest.(check (list int)) "same clock values on a second run" seen again;
  Alcotest.(check bool) "the run spans many epochs" true (List.length seen > 10);
  Alcotest.(check bool) "one event crosses several multiples" true
    (List.exists2 (fun a b -> (b / epoch) - (a / epoch) > 1) (List.rev (List.tl (List.rev clocks)))
       (List.tl clocks));
  (* registered at clock 0: it fires at the first event, then at the first
     value at or past each multiple *)
  Alcotest.(check (list int)) "first event, then each epoch's first value"
    (List.nth clocks 1 :: epoch_firsts (List.tl clocks))
    seen

let test_epoch_hook_registered_mid_run () =
  let late = ref [] in
  let at = ref 0 in
  let mid m =
    at := Dbi.Machine.now m;
    Dbi.Machine.on_epoch m (fun m -> late := Dbi.Machine.now m :: !late)
  in
  let clocks, seen = hooked ~mid () in
  let _, unperturbed = hooked () in
  let late = List.rev !late in
  let rec after = function c :: rest -> if c > !at then c :: rest else after rest | [] -> [] in
  let from_next = after clocks in
  Alcotest.(check int) "fires at the next event" (List.hd from_next) (List.hd late);
  Alcotest.(check (list int)) "then at each epoch's first value" (epoch_firsts from_next)
    (List.tl late);
  Alcotest.(check (list int)) "the earlier hook is unperturbed" unperturbed seen

exception Hook_abort of int

let test_epoch_hook_raises () =
  let m = fresh () in
  Dbi.Machine.on_epoch m (fun m ->
      if Dbi.Machine.now m >= 2 * epoch then raise (Hook_abort (Dbi.Machine.now m)));
  let expected = List.find (fun c -> c >= 2 * epoch) (drive (fresh ())) in
  match drive m with
  | _ -> Alcotest.fail "the hook's exception never escaped"
  | exception Hook_abort now ->
    Alcotest.(check int) "aborted at the epoch's first value" expected now;
    Alcotest.(check int) "the clock stopped there" now (Dbi.Machine.now m)

let suite =
  ( "machine",
    [
      ( "machine",
        [
          Alcotest.test_case "event dispatch" `Quick test_event_dispatch;
          Alcotest.test_case "clock semantics" `Quick test_clock_semantics;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "call numbers" `Quick test_call_numbers;
          Alcotest.test_case "current ctx tracking" `Quick test_current_ctx_tracking;
          Alcotest.test_case "call overhead to caller" `Quick test_call_overhead_charged_to_caller;
          Alcotest.test_case "syscall pseudo-function" `Quick test_syscall_pseudo_function;
          Alcotest.test_case "is_syscall_fn" `Quick test_is_syscall_fn;
          Alcotest.test_case "unbalanced leave rejected" `Quick test_unbalanced_leave_rejected;
          Alcotest.test_case "finish requires empty stack" `Quick test_finish_requires_empty_stack;
          Alcotest.test_case "finish idempotent" `Quick test_finish_idempotent;
          Alcotest.test_case "stripped machine" `Quick test_stripped_machine;
          Alcotest.test_case "bad event args" `Quick test_bad_event_args;
          Alcotest.test_case "calls allocate nothing" `Quick test_calls_allocate_nothing;
          Alcotest.test_case "epoch hook clock" `Quick test_epoch_hook_clock;
          Alcotest.test_case "epoch hook registered mid-run" `Quick
            test_epoch_hook_registered_mid_run;
          Alcotest.test_case "epoch hook raises" `Quick test_epoch_hook_raises;
        ] );
    ] )
