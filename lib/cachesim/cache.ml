type config = {
  size : int;
  assoc : int;
  line : int;
}

type t = {
  cfg : config;
  sets : int;
  line_bits : int;
  set_mask : int;
  tags : int array; (* sets * assoc, -1 = invalid; way order = LRU order *)
  mutable accesses : int;
  mutable misses : int;
  mutable filled : int;
}

let l1_default = { size = 32 * 1024; assoc = 8; line = 64 }
let ll_default = { size = 8 * 1024 * 1024; assoc = 16; line = 64 }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create cfg =
  if not (is_pow2 cfg.size && is_pow2 cfg.assoc && is_pow2 cfg.line) then
    invalid_arg "Cache.create: geometry must be powers of two";
  if cfg.assoc * cfg.line > cfg.size then invalid_arg "Cache.create: assoc * line > size";
  let sets = cfg.size / (cfg.assoc * cfg.line) in
  {
    cfg;
    sets;
    line_bits = log2 cfg.line;
    set_mask = sets - 1;
    tags = Array.make (sets * cfg.assoc) (-1);
    accesses = 0;
    misses = 0;
    filled = 0;
  }

(* Ways within a set are kept in recency order: index 0 is MRU. A hit
   rotates the line to front; a miss shifts everything down and installs at
   front (evicting the last way). The way search is a plain loop, not a
   local recursive function, so an access allocates nothing. *)
let touch_line t line_addr =
  let assoc = t.cfg.assoc in
  let base = (line_addr land t.set_mask) * assoc in
  let tags = t.tags in
  let pos = ref 0 in
  while !pos < assoc && tags.(base + !pos) <> line_addr do
    incr pos
  done;
  let pos = !pos in
  if pos = 0 then true
  else begin
    let hit = pos < assoc in
    let last = if hit then pos else assoc - 1 in
    if (not hit) && tags.(base + last) = -1 then t.filled <- t.filled + 1;
    for j = last downto 1 do
      tags.(base + j) <- tags.(base + j - 1)
    done;
    tags.(base) <- line_addr;
    hit
  end

let access t addr len =
  if len <= 0 then invalid_arg "Cache.access: len must be positive";
  t.accesses <- t.accesses + 1;
  let first = addr lsr t.line_bits in
  let last = (addr + len - 1) lsr t.line_bits in
  let hit = ref true in
  for line = first to last do
    if not (touch_line t line) then hit := false
  done;
  if not !hit then t.misses <- t.misses + 1;
  !hit

let repeat_hits t n = t.accesses <- t.accesses + n

let accesses t = t.accesses
let misses t = t.misses
let config t = t.cfg
let lines_filled t = t.filled

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.accesses <- 0;
  t.misses <- 0;
  t.filled <- 0
