(* Metrics vocabulary for Sigil's self-profiling. Subsystems keep plain
   mutable int probes on their hot paths; this module only runs at
   snapshot/merge/render time, so nothing here needs to be fast — it needs
   to be deterministic. Snapshots are name-sorted unique sample lists,
   which makes [merge] associative and commutative by construction and
   JSON output byte-stable. *)

type domain = Det | Wall

type value =
  | Counter of int
  | Gauge of int
  | Peak of int
  | Histogram of int array
  | Seconds of float

type sample = { name : string; domain : domain; value : value }

(* OCaml ints are 63-bit: bucket 0 for v <= 0, buckets 1..62 for
   [2^(b-1), 2^b). 63 slots cover every int. *)
let n_buckets = 63

let trim counts =
  let n = ref (Array.length counts) in
  while !n > 0 && counts.(!n - 1) = 0 do
    decr n
  done;
  Array.sub counts 0 !n

module Hist = struct
  type t = int array

  let create () = Array.make n_buckets 0

  let bucket_of v =
    if v <= 0 then 0
    else
      (* floor(log2 v) + 1, via the position of the highest set bit *)
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      bits 0 v

  let bucket_lo b = if b <= 0 then 0 else 1 lsl (b - 1)
  let observe t v =
    let b = bucket_of v in
    t.(b) <- t.(b) + 1
  let counts t = trim t
  let total t = Array.fold_left ( + ) 0 t
end

let count ?(domain = Det) name v = { name; domain; value = Counter v }
let gauge ?(domain = Det) name v = { name; domain; value = Gauge v }
let peak ?(domain = Det) name v = { name; domain; value = Peak v }
let hist ?(domain = Det) name h = { name; domain; value = Histogram (trim h) }
let seconds name v = { name; domain = Wall; value = Seconds v }

type snapshot = sample list (* sorted by name, names unique *)

let empty = []

let combine_values name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x + y)
  | Peak x, Peak y -> Peak (max x y)
  | Seconds x, Seconds y -> Seconds (x +. y)
  | Histogram x, Histogram y ->
    let n = max (Array.length x) (Array.length y) in
    let get a i = if i < Array.length a then a.(i) else 0 in
    Histogram (trim (Array.init n (fun i -> get x i + get y i)))
  | (Counter _ | Gauge _ | Peak _ | Histogram _ | Seconds _), _ ->
    invalid_arg (Printf.sprintf "Telemetry: sample %S merged with a different kind" name)

let combine a b =
  if a.domain <> b.domain then
    invalid_arg (Printf.sprintf "Telemetry: sample %S merged across domains" a.name);
  { a with value = combine_values a.name a.value b.value }

(* merge of two sorted unique lists *)
let rec merge a b =
  match (a, b) with
  | [], s | s, [] -> s
  | x :: a', y :: b' ->
    let c = compare x.name y.name in
    if c < 0 then x :: merge a' b
    else if c > 0 then y :: merge a b'
    else combine x y :: merge a' b'

let of_samples ss =
  let sorted = List.stable_sort (fun a b -> compare a.name b.name) ss in
  List.fold_left (fun acc s -> merge acc [ s ]) [] sorted

let deterministic s = List.filter (fun x -> x.domain = Det) s
let wall s = List.filter (fun x -> x.domain = Wall) s

let equal_value a b =
  match (a, b) with
  | Counter x, Counter y | Gauge x, Gauge y | Peak x, Peak y -> x = y
  | Seconds x, Seconds y -> x = y
  | Histogram x, Histogram y -> trim x = trim y
  | (Counter _ | Gauge _ | Peak _ | Histogram _ | Seconds _), _ -> false

let equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> x.name = y.name && x.domain = y.domain && equal_value x.value y.value)
       a b

let find s name = List.find_opt (fun x -> x.name = name) s |> Option.map (fun x -> x.value)

let get_int s name =
  match find s name with
  | None -> 0
  | Some (Counter v | Gauge v | Peak v) -> v
  | Some (Histogram _ | Seconds _) ->
    invalid_arg (Printf.sprintf "Telemetry.get_int: %S is not an integer sample" name)

let value_to_json = function
  | Counter v | Gauge v | Peak v -> string_of_int v
  | Seconds v -> Printf.sprintf "%.6f" v
  | Histogram counts ->
    "[" ^ String.concat "," (Array.to_list (Array.map string_of_int counts)) ^ "]"

let json_object ?(indent = "") s =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      if indent <> "" then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf indent
      end;
      Buffer.add_string buf (Printf.sprintf "%S: %s" x.name (value_to_json x.value)))
    s;
  if indent <> "" && s <> [] then Buffer.add_char buf '\n';
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_json s =
  Printf.sprintf "{\"deterministic\": %s, \"wall_clock\": %s}"
    (json_object (deterministic s))
    (json_object (wall s))

let pp_value ppf = function
  | Counter v | Gauge v | Peak v -> Format.fprintf ppf "%d" v
  | Seconds v -> Format.fprintf ppf "%.3f s" v
  | Histogram counts ->
    let total = Array.fold_left ( + ) 0 counts in
    Format.fprintf ppf "n=%d" total;
    Array.iteri
      (fun b c -> if c > 0 then Format.fprintf ppf " [%d+]:%d" (Hist.bucket_lo b) c)
      counts

let pp_section ppf title = function
  | [] -> ()
  | ss ->
    Format.fprintf ppf "%s:@." title;
    let width = List.fold_left (fun w x -> max w (String.length x.name)) 0 ss in
    List.iter (fun x -> Format.fprintf ppf "  %-*s  %a@." width x.name pp_value x.value) ss

let pp ppf s =
  pp_section ppf "deterministic" (deterministic s);
  pp_section ppf "wall-clock (nondeterministic)" (wall s)
