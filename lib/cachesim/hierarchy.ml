type config = {
  l1i : Cache.config;
  l1d : Cache.config;
  ll : Cache.config;
}

let default = { l1i = Cache.l1_default; l1d = Cache.l1_default; ll = Cache.ll_default }

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  ll : Cache.t;
}

let create (cfg : config) =
  { l1i = Cache.create cfg.l1i; l1d = Cache.create cfg.l1d; ll = Cache.create cfg.ll }

let l1_hit = 0
let ll_hit = 1
let ll_miss = 2

let through t l1 addr len =
  if Cache.access l1 addr len then l1_hit
  else if Cache.access t.ll addr len then ll_hit
  else ll_miss

let fetch t addr len = through t t.l1i addr len
let data_read t addr len = through t t.l1d addr len
let data_write t addr len = through t t.l1d addr len
