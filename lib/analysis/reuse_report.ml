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

let byte_breakdown tool =
  let bins = Sigil.Reuse.version_bins (Sigil.Tool.reuse tool) in
  let total = bins.Sigil.Reuse.zero + bins.Sigil.Reuse.low + bins.Sigil.Reuse.high in
  if total = 0 then { zero = 0.; one_to_nine = 0.; over_nine = 0.; elements = 0 }
  else
    let f n = float_of_int n /. float_of_int total in
    {
      zero = f bins.Sigil.Reuse.zero;
      one_to_nine = f bins.Sigil.Reuse.low;
      over_nine = f bins.Sigil.Reuse.high;
      elements = total;
    }

module P = Sigil.Profile_io

let top_reusers ?(n = 10) tool =
  let reuse = Sigil.Tool.reuse tool in
  let snap = P.snapshot_of_tool tool in
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
              avg_lifetime = Sigil.Reuse.avg_lifetime reuse ctx;
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

let lifetime_histogram_dominant tool snap name =
  let reuse = Sigil.Tool.reuse tool in
  let best =
    List.fold_left
      (fun acc ctx ->
        let r = Sigil.Reuse.fn_reuse reuse ctx in
        match acc with
        | Some (_, best_reads) when best_reads >= r.Sigil.Reuse.reuse_reads -> acc
        | Some _ | None -> Some (ctx, r.Sigil.Reuse.reuse_reads))
      None (find_contexts snap name)
  in
  match best with
  | Some (ctx, _) -> Sigil.Reuse.histogram reuse ctx
  | None -> []

let lifetime_histogram tool snap name =
  let reuse = Sigil.Tool.reuse tool in
  let merged = Hashtbl.create 64 in
  List.iter
    (fun ctx ->
      List.iter
        (fun (bin, count) ->
          match Hashtbl.find_opt merged bin with
          | Some r -> r := !r + count
          | None -> Hashtbl.add merged bin (ref count))
        (Sigil.Reuse.histogram reuse ctx))
    (find_contexts snap name);
  List.sort compare (Hashtbl.fold (fun bin r acc -> (bin, !r) :: acc) merged [])
