let pp ?(limit = 25) ppf snap =
  let ops (s : Profile_io.ctx_stats) = s.int_ops + s.fp_ops in
  Format.fprintf ppf "%10s %8s %11s %11s %11s %11s  %s@." "ops" "calls" "in-uniq/tot"
    "local-u/tot" "out-uniq/tot" "written" "function";
  List.iteri
    (fun i (s : Profile_io.ctx_stats) ->
      if i < limit then
        let output_total, output_unique = Profile_io.output_bytes snap s.ctx in
        Format.fprintf ppf "%10d %8d %5d/%-5d %5d/%-5d %5d/%-6d %11d  %s@." (ops s) s.calls
          s.input_unique (s.input_unique + s.input_nonunique) s.local_unique
          (s.local_unique + s.local_nonunique) output_unique output_total s.written
          (Profile_io.path snap s.ctx))
    (List.stable_sort (fun a b -> compare (ops b) (ops a)) (Profile_io.active_contexts snap))

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
