let render ~headers rows =
  let ncols = List.fold_left (fun acc row -> max acc (List.length row)) (List.length headers) rows in
  let pad_row row =
    let len = List.length row in
    if len < ncols then row @ List.init (ncols - len) (fun _ -> "") else row
  in
  let headers = pad_row headers in
  let rows = List.map pad_row rows in
  let widths = Array.make ncols 0 in
  let measure row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  measure headers;
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit headers;
  let rule = List.init ncols (fun i -> String.make widths.(i) '-') in
  emit rule;
  List.iter emit rows;
  Buffer.contents buf

let bar_chart ?(fmt = Printf.sprintf "%.2f") items =
  let width = 50 in
  let max_v = List.fold_left (fun acc (_, v) -> max acc v) 0.0 items in
  let max_label =
    List.fold_left (fun acc (label, _) -> max acc (String.length label)) 0 items
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (label, v) ->
      let v = max 0.0 v in
      let n =
        if max_v <= 0.0 then 0
        else int_of_float (Float.round (v /. max_v *. float_of_int width))
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s |%-*s| %s\n" max_label label width (String.make n '#') (fmt v)))
    items;
  Buffer.contents buf

let stacked_bar segments =
  let width = 60 in
  let fills = [| '#'; '='; '-'; '.'; ' ' |] in
  let total = List.fold_left (fun acc (_, f) -> acc +. max 0.0 f) 0.0 segments in
  let buf = Buffer.create 256 in
  if total > 0.0 then begin
    Buffer.add_char buf '[';
    let used = ref 0 in
    let n = List.length segments in
    List.iteri
      (fun i (_, f) ->
        let cells =
          if i = n - 1 then width - !used
          else int_of_float (Float.round (max 0.0 f /. total *. float_of_int width))
        in
        let cells = max 0 (min cells (width - !used)) in
        Buffer.add_string buf (String.make cells fills.(i mod Array.length fills));
        used := !used + cells)
      segments;
    Buffer.add_char buf ']';
    Buffer.add_string buf "  ";
    List.iteri
      (fun i (label, f) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf
          (Printf.sprintf "%c=%s %.1f%%" fills.(i mod Array.length fills) label (100.0 *. f /. total)))
      segments
  end
  else Buffer.add_string buf "(no data)";
  Buffer.add_char buf '\n';
  Buffer.contents buf

let section title =
  Printf.sprintf "\n%s\n%s\n" title (String.make (String.length title) '=')
