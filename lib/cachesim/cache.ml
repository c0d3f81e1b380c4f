type config = {
  size : int;
  assoc : int;
  line : int;
}

type t = {
  cfg : config;
  line_bits : int;
  set_mask : int;
  tags : int array; (* sets * assoc, -1 = invalid; way order = LRU order *)
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
    line_bits = log2 cfg.line;
    set_mask = sets - 1;
    tags = Array.make (sets * cfg.assoc) (-1);
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
    for j = last downto 1 do
      tags.(base + j) <- tags.(base + j - 1)
    done;
    tags.(base) <- line_addr;
    hit
  end

let access t addr len =
  if len <= 0 then invalid_arg "Cache.access: len must be positive";
  let first = addr lsr t.line_bits in
  let last = (addr + len - 1) lsr t.line_bits in
  let hit = ref true in
  for line = first to last do
    if not (touch_line t line) then hit := false
  done;
  !hit
