(* The list-building form of [Shadow.read_range], shared by the shadow
   tests: the runs one range read reports, in the order it reports them;
   and the one-byte reads and writes the tests build traces from. *)

type run = { producer : Dbi.Context.id; producer_call : int; bytes : int; unique_bytes : int }

let run_t : run Alcotest.testable =
  Alcotest.testable
    (fun ppf r ->
      Format.fprintf ppf "{producer=%d; call=%d; bytes=%d; unique=%d}" r.producer r.producer_call
        r.bytes r.unique_bytes)
    ( = )

let read_range t ~ctx ~call ~now addr len =
  let runs = ref [] in
  Sigil.Shadow.read_range t ~ctx ~call ~now addr len
    (fun ~producer ~producer_call ~bytes ~unique_bytes ->
      runs := { producer; producer_call; bytes; unique_bytes } :: !runs);
  List.rev !runs

(* A one-byte read: its only run, whose [unique_bytes] is 1 for a unique
   read and 0 for a re-use. *)
let read_byte t ~ctx ~call ~now addr =
  match read_range t ~ctx ~call ~now addr 1 with
  | [ r ] -> r
  | runs -> Alcotest.failf "a one-byte read reported %d runs" (List.length runs)

let write_byte t ~ctx ~call ~now addr = Sigil.Shadow.write_range t ~ctx ~call ~now addr 1
