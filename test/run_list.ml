(* The list-building form of [Shadow.read_range], shared by the shadow
   tests: the runs one range read reports, in the order it reports them;
   the one-byte reads and writes the tests build traces from; and what the
   tests read back through them and through telemetry. *)

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

(* Live second-level chunks, as the shadow's telemetry reports them. *)
let chunks_live t =
  Telemetry.get_int (Telemetry.of_samples (Sigil.Shadow.telemetry t)) "shadow.chunks_live"

(* The producer of the byte at [addr], read by a context no test uses:
   root when it was never written or its chunk was evicted. The read is
   recorded like any other, and it brings an evicted chunk back. *)
let producer t addr = (read_byte t ~ctx:99 ~call:1 ~now:0 addr).producer
