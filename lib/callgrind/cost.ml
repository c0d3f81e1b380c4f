type t = {
  mutable ir : int;
  mutable int_ops : int;
  mutable fp_ops : int;
  mutable dr : int;
  mutable dw : int;
  mutable d1mr : int;
  mutable d1mw : int;
  mutable dlmr : int;
  mutable dlmw : int;
  mutable i1mr : int;
  mutable ilmr : int;
  mutable bc : int;
  mutable bcm : int;
  mutable calls : int;
}

let zero () =
  {
    ir = 0;
    int_ops = 0;
    fp_ops = 0;
    dr = 0;
    dw = 0;
    d1mr = 0;
    d1mw = 0;
    dlmr = 0;
    dlmw = 0;
    i1mr = 0;
    ilmr = 0;
    bc = 0;
    bcm = 0;
    calls = 0;
  }

let add ~into src =
  into.ir <- into.ir + src.ir;
  into.int_ops <- into.int_ops + src.int_ops;
  into.fp_ops <- into.fp_ops + src.fp_ops;
  into.dr <- into.dr + src.dr;
  into.dw <- into.dw + src.dw;
  into.d1mr <- into.d1mr + src.d1mr;
  into.d1mw <- into.d1mw + src.d1mw;
  into.dlmr <- into.dlmr + src.dlmr;
  into.dlmw <- into.dlmw + src.dlmw;
  into.i1mr <- into.i1mr + src.i1mr;
  into.ilmr <- into.ilmr + src.ilmr;
  into.bc <- into.bc + src.bc;
  into.bcm <- into.bcm + src.bcm;
  into.calls <- into.calls + src.calls

let copy t =
  let c = zero () in
  add ~into:c t;
  c

let l1_misses t = t.i1mr + t.d1mr + t.d1mw
let ll_misses t = t.ilmr + t.dlmr + t.dlmw
