type line_record = {
  line_addr : int;
  accesses : int;
  first : int;
  last : int;
}

type bins = {
  under_10 : int;
  under_100 : int;
  under_1000 : int;
  under_10000 : int;
  over_10000 : int;
}

type cell = {
  mutable accesses : int;
  mutable first : int;
  mutable last : int;
}

type t = {
  line_bits : int;
  size : int;
  table : (int, cell) Hashtbl.t;
  mutable touches : int; (* telemetry: touch calls, not lines covered *)
}

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(line_size = 64) () =
  if line_size <= 0 || line_size land (line_size - 1) <> 0 then
    invalid_arg "Line_shadow.create: line size must be a positive power of two";
  { line_bits = log2 line_size; size = line_size; table = Hashtbl.create 4096; touches = 0 }

let touch t ~now addr size =
  if size <= 0 then invalid_arg "Line_shadow.touch: size must be positive";
  t.touches <- t.touches + 1;
  let first_line = addr lsr t.line_bits in
  let last_line = (addr + size - 1) lsr t.line_bits in
  for line = first_line to last_line do
    match Hashtbl.find t.table line with
    | c ->
      c.accesses <- c.accesses + 1;
      c.last <- now
    | exception Not_found -> Hashtbl.add t.table line { accesses = 1; first = now; last = now }
  done

let lines t = Hashtbl.length t.table

let records t =
  let all =
    Hashtbl.fold
      (fun line c acc ->
        { line_addr = line; accesses = c.accesses; first = c.first; last = c.last } :: acc)
      t.table []
  in
  List.sort (fun a b -> compare a.line_addr b.line_addr) all

let reuse_count (r : line_record) = r.accesses - 1

let bins t =
  Hashtbl.fold
    (fun _ c b ->
      let reuse = c.accesses - 1 in
      if reuse < 10 then { b with under_10 = b.under_10 + 1 }
      else if reuse < 100 then { b with under_100 = b.under_100 + 1 }
      else if reuse < 1000 then { b with under_1000 = b.under_1000 + 1 }
      else if reuse < 10000 then { b with under_10000 = b.under_10000 + 1 }
      else { b with over_10000 = b.over_10000 + 1 })
    t.table
    { under_10 = 0; under_100 = 0; under_1000 = 0; under_10000 = 0; over_10000 = 0 }

let telemetry t =
  let line_accesses = Hashtbl.fold (fun _ c acc -> acc + c.accesses) t.table 0 in
  Telemetry.
    [
      count "line.touches" t.touches;
      count "line.accesses" line_accesses;
      gauge "line.lines" (Hashtbl.length t.table);
      gauge "line.size" t.size;
    ]

let bin_fractions t =
  let b = bins t in
  let total = b.under_10 + b.under_100 + b.under_1000 + b.under_10000 + b.over_10000 in
  if total = 0 then (0., 0., 0., 0., 0.)
  else
    let f n = float_of_int n /. float_of_int total in
    (f b.under_10, f b.under_100, f b.under_1000, f b.under_10000, f b.over_10000)
