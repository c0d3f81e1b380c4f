type byte_breakdown = {
  zero : float;
  one_to_nine : float;
  over_nine : float;
  elements : int;
}

type fn_row = {
  ctx : Dbi.Context.id;
  label : string;
  avg_lifetime : float;
  reuse_reads : int;
  unique_bytes : int;
  unique_share : float;
}

module P = Sigil.Profile_io

let summary snap =
  match P.reuse snap with
  | Some r -> r
  | None -> invalid_arg "Reuse_report: the profile has no reuse summary"

let breakdown snap =
  let { Sigil.Reuse.zero; low; high } = Sigil.Reuse.version_bins (summary snap) in
  let total = zero + low + high in
  let f n = if total = 0 then 0. else float_of_int n /. float_of_int total in
  { zero = f zero; one_to_nine = f low; over_nine = f high; elements = total }

let top ?(n = 10) snap =
  let reuse = summary snap in
  let unique_total = max 1 (fst (P.totals snap)) in
  let rows =
    List.filter_map
      (fun ctx ->
        let r = Sigil.Reuse.fn_reuse reuse ctx in
        if r.Sigil.Reuse.reuse_reads = 0 then None
        else
          let s = P.stats snap ctx in
          let unique_bytes = s.input_unique + s.local_unique in
          Some
            {
              ctx;
              label = P.name snap ctx;
              (* a re-read makes its episode reused: reused_episodes > 0 *)
              avg_lifetime = float_of_int r.lifetime_sum /. float_of_int r.reused_episodes;
              reuse_reads = r.Sigil.Reuse.reuse_reads;
              unique_bytes;
              unique_share = float_of_int unique_bytes /. float_of_int unique_total;
            })
      (Sigil.Reuse.contexts reuse)
  in
  let rows = List.sort (fun a b -> compare b.reuse_reads a.reuse_reads) rows in
  let rows =
    let seen = Hashtbl.create 16 in
    List.map
      (fun row ->
        let k =
          match Hashtbl.find_opt seen row.label with
          | Some k -> k + 1
          | None -> 0
        in
        Hashtbl.replace seen row.label k;
        if k = 0 then row
        else { row with label = Printf.sprintf "%s(%d)" row.label k })
      rows
  in
  List.filteri (fun i _ -> i < n) rows

let find_contexts snap name =
  List.init (P.count snap) Fun.id
  |> List.filter (fun ctx -> ctx <> Dbi.Context.root && P.name snap ctx = name)

let lifetime_histogram_dominant snap name =
  let reuse = summary snap in
  let reads ctx = (Sigil.Reuse.fn_reuse reuse ctx).reuse_reads in
  match find_contexts snap name with
  | [] -> []
  | c :: cs ->
    let best = List.fold_left (fun best ctx -> if reads ctx > reads best then ctx else best) c cs in
    Sigil.Reuse.histogram reuse best

(* the contexts' bins, sorted, with equal bins summed *)
let lifetime_histogram snap name =
  List.concat_map (Sigil.Reuse.histogram (summary snap)) (find_contexts snap name)
  |> List.sort compare
  |> List.fold_left
       (fun acc (bin, n) ->
         match acc with (b, m) :: rest when b = bin -> (b, m + n) :: rest | _ -> (bin, n) :: acc)
       []
  |> List.rev

let byte_breakdown tool = breakdown (P.snapshot_of_tool tool)
let top_reusers ?n tool = top ?n (P.snapshot_of_tool tool)
