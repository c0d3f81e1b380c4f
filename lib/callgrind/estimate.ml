let branch_penalty = 10
let l1_penalty = 10
let ll_penalty = 100

let cycles (c : Cost.t) =
  c.ir + (branch_penalty * c.bcm) + (l1_penalty * Cost.l1_misses c)
  + (ll_penalty * Cost.ll_misses c)
