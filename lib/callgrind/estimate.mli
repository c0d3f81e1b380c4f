(** Cycle estimation.

    Matches the calculation Callgrind uses to estimate cycle count (and
    which the paper reuses for the software run time of a function):

    {v CEst = Ir + 10*Bm + 10*L1m + 100*LLm v}

    i.e. one cycle per retired instruction, 10 per branch mispredict, 10 per
    first-level cache miss, 100 per last-level miss. *)

(** [cycles cost] is the estimated cycle count for a cost record. *)
val cycles : Cost.t -> int
