(* The list-building form of [Shadow.read_range], shared by the shadow
   tests: the runs one range read reports, in the order it reports them. *)

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
