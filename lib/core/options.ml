type t = {
  reuse_mode : bool;
  collect_events : bool;
  line_size : int option;
  max_chunks : int option;
  per_byte_shadow : bool;
  instr_budget : int option;
  timeout_s : float option;
  collect_stats : bool;
}

let default =
  {
    reuse_mode = false;
    collect_events = false;
    line_size = None;
    max_chunks = None;
    per_byte_shadow = false;
    instr_budget = None;
    timeout_s = None;
    collect_stats = false;
  }

let with_reuse t = { t with reuse_mode = true }
let with_stats t = { t with collect_stats = true }
let with_events t = { t with collect_events = true }

let with_line_size t size =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Options.with_line_size: line size must be a positive power of two";
  { t with line_size = Some size }

let with_max_chunks t n =
  if n <= 0 then invalid_arg "Options.with_max_chunks: must be positive";
  { t with max_chunks = Some n }

let with_instr_budget t n =
  if n <= 0 then invalid_arg "Options.with_instr_budget: must be positive";
  { t with instr_budget = Some n }

let with_timeout t s =
  if s < 0.0 then invalid_arg "Options.with_timeout: must be non-negative";
  { t with timeout_s = Some s }

let fingerprint t =
  let opt = function None -> "-" | Some n -> string_of_int n in
  let optf = function None -> "-" | Some s -> Printf.sprintf "%g" s in
  Printf.sprintf "reuse=%b events=%b line=%s max_chunks=%s per_byte=%b budget=%s timeout=%s"
    t.reuse_mode t.collect_events (opt t.line_size) (opt t.max_chunks) t.per_byte_shadow
    (opt t.instr_budget) (optf t.timeout_s)
