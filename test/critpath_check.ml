(* Analysis.Critpath against the spec test/critpath_spec.ml, over one
   event stream. [agree] checks with [valid_path], whatever the
   tie-breaks, that the analysis's critical path is a longest path of the
   spec's DAG, then compares every reported value; it names the first
   difference. *)

module Cp = Analysis.Critpath
module S = Critpath_spec

let ( let* ) = Result.bind

let same what show a b =
  if a = b then Ok () else Error (Printf.sprintf "%s: critpath %s, spec %s" what (show a) (show b))

let ints l = String.concat " " (List.map string_of_int l)

let show_path l =
  String.concat "; " (List.map (fun (c, k, o, s, i) -> Printf.sprintf "%d %d %d %d %d" c k o s i) l)

let show_schedule (m, s, u) = Printf.sprintf "makespan %d speedup %h utilization %h" m s u

(* Every path node is a spec node of the same inclusive length, each
   consecutive pair is a spec edge along which the node's start is its
   predecessor's inclusive length, the first node starts at 0 and the
   last ends at the spec's critical length. *)
let valid_path spec t =
  let ids = Hashtbl.create 64 in
  Array.iteri (fun v (n : S.node) -> Hashtbl.replace ids (n.ctx, n.call, n.occurrence) v) spec.S.nodes;
  let rec walk prev last = function
    | [] -> same "path end" string_of_int last (S.critical_length spec)
    | (n : Cp.node) :: rest -> (
      let where = Printf.sprintf "path node (ctx %d, call %d, occurrence %d)" n.ctx n.call n.occurrence in
      match Hashtbl.find_opt ids (n.ctx, n.call, n.occurrence) with
      | None -> Error (where ^ ": not a spec node")
      | Some v ->
        let node = spec.S.nodes.(v) in
        let* () = same (where ^ " inclusive") string_of_int n.inclusive spec.S.inclusive.(v) in
        let* () =
          match prev with
          | None -> same (where ^ ", the first, start") string_of_int (n.inclusive - node.S.weight) 0
          | Some p when not (List.mem p node.S.preds) ->
            Error (Printf.sprintf "%s: no spec edge from node %d" where p)
          | Some p ->
            same (where ^ ", start") string_of_int (n.inclusive - node.S.weight) spec.S.inclusive.(p)
        in
        walk (Some v) n.inclusive rest)
  in
  walk None 0 (Cp.critical_path t)

(* [valid_path] first, which a wrong edge fails whatever the ties, then
   every reported value, which a wrong tie-break fails. The core counts
   end above every generated stream's node count. *)
let agree ?(cores = [ 1; 2; 3; 4; 5; 1000; 4096 ]) spec t (summary : Cp.summary) =
  let int = string_of_int in
  let* () = valid_path spec t in
  let* () = same "serial length" int (Cp.serial_length t) (S.serial_length spec) in
  let* () = same "critical length" int (Cp.critical_path_length t) (S.critical_length spec) in
  let* () = same "node count" int (Cp.node_count t) (S.node_count spec) in
  let* () = same "parallelism" (Printf.sprintf "%h") (Cp.parallelism t) (S.parallelism spec) in
  let* () =
    same "critical path contexts" ints (Cp.critical_path_contexts t)
      (S.critical_path_contexts spec)
  in
  let* () =
    same "critical path" show_path
      (List.map (fun (n : Cp.node) -> (n.ctx, n.call, n.occurrence, n.self, n.inclusive))
         (Cp.critical_path t))
      (List.map
         (fun v ->
           let n = spec.S.nodes.(v) in
           (n.S.ctx, n.S.call, n.S.occurrence, n.S.weight, spec.S.inclusive.(v)))
         (S.path spec))
  in
  let* () =
    same "summary (serial, critical, fragments)"
      (fun (a, b, c) -> ints [ a; b; c ])
      (summary.Cp.s_serial, summary.Cp.s_critical, summary.Cp.s_fragments)
      (S.serial_length spec, S.critical_length spec, S.node_count spec)
  in
  List.fold_left
    (fun acc cores ->
      let* () = acc in
      let s = Cp.schedule t ~cores in
      same
        (Printf.sprintf "schedule on %d cores" cores)
        show_schedule
        (s.Cp.makespan, s.Cp.speedup, s.Cp.utilization)
        (S.schedule spec ~cores))
    (Ok ()) cores

(* [agree] on the analysis and the spec of the stream [entries]. *)
let agree_on ?cores entries =
  let stream = Helpers.stream_of entries in
  agree ?cores (S.build stream) (Cp.analyze_stream stream) (Cp.summarize_stream stream)
