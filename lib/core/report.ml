type row = {
  ctx : Dbi.Context.id;
  path : string;
  calls : int;
  ops : int;
  input_unique : int;
  input_total : int;
  local_unique : int;
  local_total : int;
  output_unique : int;
  output_total : int;
  written : int;
}

let rows snap =
  let make (s : Profile_io.ctx_stats) =
    let output_total, output_unique = Profile_io.output_bytes snap s.ctx in
    {
      ctx = s.ctx;
      path = Profile_io.path snap s.ctx;
      calls = s.calls;
      ops = s.int_ops + s.fp_ops;
      input_unique = s.input_unique;
      input_total = s.input_unique + s.input_nonunique;
      local_unique = s.local_unique;
      local_total = s.local_unique + s.local_nonunique;
      output_unique;
      output_total;
      written = s.written;
    }
  in
  let all = List.map make (Profile_io.active_contexts snap) in
  List.sort (fun a b -> compare b.ops a.ops) all

let pp ?(limit = 25) ppf snap =
  Format.fprintf ppf "%10s %8s %11s %11s %11s %11s  %s@." "ops" "calls" "in-uniq/tot"
    "local-u/tot" "out-uniq/tot" "written" "function";
  List.iteri
    (fun i row ->
      if i < limit then
        Format.fprintf ppf "%10d %8d %5d/%-5d %5d/%-5d %5d/%-6d %11d  %s@." row.ops row.calls
          row.input_unique row.input_total row.local_unique row.local_total row.output_unique
          row.output_total row.written row.path)
    (rows snap)

let pp_edges ?(limit = 25) ppf snap =
  let edges =
    List.sort
      (fun (a : Profile_io.edge) b -> compare b.unique_bytes a.unique_bytes)
      (Profile_io.edges snap)
  in
  Format.fprintf ppf "%12s %12s  %s -> %s@." "unique-bytes" "total-bytes" "producer" "consumer";
  List.iteri
    (fun i (e : Profile_io.edge) ->
      if i < limit then
        Format.fprintf ppf "%12d %12d  %s -> %s@." e.unique_bytes e.bytes
          (Profile_io.path snap e.src) (Profile_io.path snap e.dst))
    edges
