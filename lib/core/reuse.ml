type fn_reuse = {
  episodes : int;
  reused_episodes : int;
  reuse_reads : int;
  lifetime_sum : int;
}

type version_bins = {
  zero : int;
  low : int;
  high : int;
}

type cell = {
  mutable episodes : int;
  mutable reused_episodes : int;
  mutable reuse_reads : int;
  mutable lifetime_sum : int;
  hist : (int, int ref) Hashtbl.t;
}

type t = {
  mutable cells : cell option array;
  mutable zero : int;
  mutable low : int;
  mutable high : int;
}

(* the paper's "Bin size: 1000" *)
let lifetime_bin = 1000

let create () = { cells = Array.make 256 None; zero = 0; low = 0; high = 0 }

let cell t ctx =
  let len = Array.length t.cells in
  if ctx >= len then begin
    let grown = Array.make (max (2 * len) (ctx + 1)) None in
    Array.blit t.cells 0 grown 0 len;
    t.cells <- grown
  end;
  match t.cells.(ctx) with
  | Some c -> c
  | None ->
    let c =
      { episodes = 0; reused_episodes = 0; reuse_reads = 0; lifetime_sum = 0;
        hist = Hashtbl.create 16 }
    in
    t.cells.(ctx) <- Some c;
    c

let sink t : Shadow.sink =
  {
    on_episode_end =
      (fun ~reader ~reads ~first ~last ->
        let c = cell t reader in
        c.episodes <- c.episodes + 1;
        if reads > 1 then begin
          let lifetime = last - first in
          c.reused_episodes <- c.reused_episodes + 1;
          c.reuse_reads <- c.reuse_reads + (reads - 1);
          c.lifetime_sum <- c.lifetime_sum + lifetime;
          let bin = lifetime / lifetime_bin * lifetime_bin in
          match Hashtbl.find c.hist bin with
          | r -> incr r
          | exception Not_found -> Hashtbl.add c.hist bin (ref 1)
        end);
    on_version_end =
      (fun ~producer:_ ~nonunique ->
        if nonunique = 0 then t.zero <- t.zero + 1
        else if nonunique <= 9 then t.low <- t.low + 1
        else t.high <- t.high + 1);
  }

let fn_reuse t ctx =
  if ctx < Array.length t.cells then
    match t.cells.(ctx) with
    | Some c ->
      {
        episodes = c.episodes;
        reused_episodes = c.reused_episodes;
        reuse_reads = c.reuse_reads;
        lifetime_sum = c.lifetime_sum;
      }
    | None -> { episodes = 0; reused_episodes = 0; reuse_reads = 0; lifetime_sum = 0 }
  else { episodes = 0; reused_episodes = 0; reuse_reads = 0; lifetime_sum = 0 }

let avg_lifetime t ctx =
  let r = fn_reuse t ctx in
  if r.reused_episodes = 0 then 0.0
  else float_of_int r.lifetime_sum /. float_of_int r.reused_episodes

let histogram t ctx =
  if ctx >= Array.length t.cells then []
  else
    match t.cells.(ctx) with
    | None -> []
    | Some c ->
      let entries = Hashtbl.fold (fun bin r acc -> (bin, !r) :: acc) c.hist [] in
      List.sort compare entries

let version_bins t = { zero = t.zero; low = t.low; high = t.high }

let contexts t =
  let acc = ref [] in
  for ctx = Array.length t.cells - 1 downto 0 do
    match t.cells.(ctx) with
    | Some c when c.episodes > 0 -> acc := ctx :: !acc
    | Some _ | None -> ()
  done;
  !acc

let lifetime_bin_width _ = lifetime_bin
