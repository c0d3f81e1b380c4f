type config = {
  l1i : Cache.config;
  l1d : Cache.config;
  ll : Cache.config;
}

let default = { l1i = Cache.l1_default; l1d = Cache.l1_default; ll = Cache.ll_default }

type counts = {
  ir : int;
  dr : int;
  dw : int;
  i1mr : int;
  d1mr : int;
  d1mw : int;
  ilmr : int;
  dlmr : int;
  dlmw : int;
}

let zero_counts =
  { ir = 0; dr = 0; dw = 0; i1mr = 0; d1mr = 0; d1mw = 0; ilmr = 0; dlmr = 0; dlmw = 0 }

(* The nine counters live in [t] itself and are bumped in place: an
   access allocates nothing. [counts] assembles a record on request. *)
type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  ll : Cache.t;
  mutable ir : int;
  mutable dr : int;
  mutable dw : int;
  mutable i1mr : int;
  mutable d1mr : int;
  mutable d1mw : int;
  mutable ilmr : int;
  mutable dlmr : int;
  mutable dlmw : int;
}

let create (cfg : config) =
  {
    l1i = Cache.create cfg.l1i;
    l1d = Cache.create cfg.l1d;
    ll = Cache.create cfg.ll;
    ir = 0;
    dr = 0;
    dw = 0;
    i1mr = 0;
    d1mr = 0;
    d1mw = 0;
    ilmr = 0;
    dlmr = 0;
    dlmw = 0;
  }

let l1_hit = 0
let ll_hit = 1
let ll_miss = 2

let fetch t addr len =
  t.ir <- t.ir + 1;
  if Cache.access t.l1i addr len then l1_hit
  else begin
    t.i1mr <- t.i1mr + 1;
    if Cache.access t.ll addr len then ll_hit
    else begin
      t.ilmr <- t.ilmr + 1;
      ll_miss
    end
  end

let fetch_hits t n =
  t.ir <- t.ir + n;
  Cache.repeat_hits t.l1i n

let data_read t addr len =
  t.dr <- t.dr + 1;
  if Cache.access t.l1d addr len then l1_hit
  else begin
    t.d1mr <- t.d1mr + 1;
    if Cache.access t.ll addr len then ll_hit
    else begin
      t.dlmr <- t.dlmr + 1;
      ll_miss
    end
  end

let data_write t addr len =
  t.dw <- t.dw + 1;
  if Cache.access t.l1d addr len then l1_hit
  else begin
    t.d1mw <- t.d1mw + 1;
    if Cache.access t.ll addr len then ll_hit
    else begin
      t.dlmw <- t.dlmw + 1;
      ll_miss
    end
  end

let counts (t : t) : counts =
  {
    ir = t.ir;
    dr = t.dr;
    dw = t.dw;
    i1mr = t.i1mr;
    d1mr = t.d1mr;
    d1mw = t.d1mw;
    ilmr = t.ilmr;
    dlmr = t.dlmr;
    dlmw = t.dlmw;
  }

let l1i t = t.l1i
let l1d t = t.l1d
let ll t = t.ll
let l1_misses (c : counts) = c.i1mr + c.d1mr + c.d1mw
let ll_misses (c : counts) = c.ilmr + c.dlmr + c.dlmw
