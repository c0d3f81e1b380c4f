open Dbi

type stage = { buf_bytes : int; fanout : int; distance : int; rounds : int }
type t = { seed : int; stages : stage array }

let max_chunks = 64
let limit_bytes = max_chunks * 4096

(* Every produced buffer is read this many times, whatever the fan-out, so
   reads outnumber writes by the same factor on every seed. *)
let read_factor = 6
let fanouts = [| 1; 2; 3; 6 |]
let distances = [| 1; 2; 3; 4 |]

(* Bytes each producer writes in one run; sets the size of the workload. *)
let stage_bytes = 1024 * 1024
let word = 8
let line = 64

(* Dbi.Machine.create's default caller-side cost of a call. *)
let call_overhead = 10

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The seed deals each stage one fan-out and one distance from fixed sets,
   so every seed has the same mix of shapes in different pairings and the
   allocation rate per instruction barely moves between seeds. *)
let make ~seed =
  let rng = Prng.create (Int64.of_int seed) in
  let fanouts = shuffle rng fanouts in
  let distances = shuffle rng distances in
  let stage i =
    let distance = distances.(i) and fanout = fanouts.(i) in
    (* the smallest line multiple that makes the ring cover the limit, plus
       up to half as much again *)
    let lines_min = (limit_bytes + (((distance + 1) * line) - 1)) / ((distance + 1) * line) in
    let rounds = stage_bytes / (line * (lines_min + Prng.int rng ((lines_min / 2) + 1))) in
    (* spread the stage's bytes evenly over its rounds, so every seed writes
       within [rounds] lines of [stage_bytes] *)
    { buf_bytes = line * (stage_bytes / rounds / line); fanout; distance; rounds }
  in
  { seed; stages = Array.init (Array.length fanouts) stage }

let working_set_bytes t =
  Array.fold_left (fun acc s -> acc + ((s.distance + 1) * s.buf_bytes)) 0 t.stages

let producer s = Printf.sprintf "stage%d_produce" s
let consumer s j = Printf.sprintf "stage%d_consume%d" s j

let run t m =
  Guest.call m "main" (fun () ->
      (* all rings are allocated before any free, so the bump allocator
         hands out consecutive line-aligned buffers *)
      let rings =
        Array.map (fun s -> Array.init (s.distance + 1) (fun _ -> Guest.alloc m s.buf_bytes)) t.stages
      in
      let last_round =
        Array.fold_left (fun acc s -> max acc (s.rounds + s.distance)) 0 t.stages
      in
      for r = 0 to last_round - 1 do
        Array.iteri
          (fun i s ->
            let slot round = rings.(i).(round mod (s.distance + 1)) in
            if r < s.rounds then
              Guest.call m (producer i) (fun () ->
                  Guest.write_range m (slot r) s.buf_bytes;
                  Guest.iop m (s.buf_bytes / word));
            let src = r - s.distance in
            if src >= 0 && src < s.rounds then
              for j = 0 to s.fanout - 1 do
                Guest.call m (consumer i j) (fun () ->
                    for _ = 1 to read_factor / s.fanout do
                      Guest.read_range m (slot src) s.buf_bytes
                    done;
                    Guest.flop m (s.buf_bytes / word / s.fanout))
              done)
          t.stages
      done;
      Array.iter (Array.iter (Guest.free m)) rings)

type expected = {
  instr : int;
  read_bytes : int;
  written_bytes : int;
  stage_written : int array;
  lines : int;
  line_accesses : int;
  line_bins : int array;
}

let bin_of_reuse n =
  if n < 10 then 0 else if n < 100 then 1 else if n < 1000 then 2 else if n < 10000 then 3 else 4

let expected t =
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.stages in
  let stage_written = Array.map (fun s -> s.rounds * s.buf_bytes) t.stages in
  let written_bytes = Array.fold_left ( + ) 0 stage_written in
  let read_bytes = read_factor * written_bytes in
  let calls = 1 + sum (fun s -> s.rounds * (1 + s.fanout)) in
  let int_ops = (call_overhead * calls) + (written_bytes / word) in
  let fp_ops = sum (fun s -> s.rounds * s.fanout * (s.buf_bytes / word / s.fanout)) in
  let accesses = (written_bytes + read_bytes) / word in
  let line_bins = Array.make 5 0 in
  let lines = ref 0 in
  Array.iter
    (fun s ->
      let slots = s.distance + 1 in
      for slot = 0 to slots - 1 do
        let writes = (s.rounds / slots) + if slot < s.rounds mod slots then 1 else 0 in
        if writes > 0 then begin
          (* one write pass and read_factor read passes per produced buffer,
             each touching every line once per word it holds *)
          let per_line = writes * (1 + read_factor) * (line / word) in
          let n = s.buf_bytes / line in
          lines := !lines + n;
          let b = bin_of_reuse (per_line - 1) in
          line_bins.(b) <- line_bins.(b) + n
        end
      done)
    t.stages;
  {
    instr = int_ops + fp_ops + accesses;
    read_bytes;
    written_bytes;
    stage_written;
    lines = !lines;
    line_accesses = accesses;
    line_bins;
  }
