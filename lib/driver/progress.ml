type handle = {
  h_label : string;
  mutable h_job : (Dbi.Machine.t * Sigil.Tool.t option) option;
  mutable h_instr : int; (* the job's clock and evictions at its latest sample *)
  mutable h_evictions : int;
}

type t = {
  total : int;
  plain : bool;
  start_s : float;
  lock : Mutex.t; (* protects every mutable field below, the handles' and stderr *)
  mutable active : handle list;
  mutable finished : int;
  mutable failed : int;
  mutable drawn_s : float; (* when the live line was last redrawn *)
  mutable live_len : int; (* width of the current live line, for erasing *)
}

let redraw_interval_s = 0.5
let now_s = Dbi.Machine.monotonic_s

(* On the job's own domain, under the lock. *)
let sample h =
  Option.iter
    (fun (m, sigil) ->
      h.h_instr <- Dbi.Machine.now m;
      h.h_evictions <- Option.fold ~none:0 ~some:Sigil.Tool.shadow_evictions sigil)
    h.h_job

let describe h =
  let mi = float_of_int h.h_instr /. 1e6 in
  if Option.is_none h.h_job then h.h_label
  else if h.h_evictions > 0 then Printf.sprintf "%s %.1fMi ev:%d" h.h_label mi h.h_evictions
  else Printf.sprintf "%s %.1fMi" h.h_label mi

(* The tty line, under the lock. *)
let redraw t =
  let now = now_s () in
  let eta =
    if t.finished > 0 && t.finished < t.total then
      Printf.sprintf " eta %.0fs"
        ((now -. t.start_s) /. float_of_int t.finished *. float_of_int (t.total - t.finished))
    else ""
  in
  let failures = if t.failed > 0 then Printf.sprintf " %d failed" t.failed else "" in
  let line =
    Printf.sprintf "[%d/%d]%s %s%s" t.finished t.total failures
      (String.concat " | " (List.map describe t.active))
      eta
  in
  let pad = max 0 (t.live_len - String.length line) in
  Printf.eprintf "\r%s%s%!" line (String.make pad ' ');
  t.live_len <- String.length line + pad;
  t.drawn_s <- now

let create ~total () =
  {
    total;
    plain = not (Unix.isatty Unix.stderr);
    start_s = now_s ();
    lock = Mutex.create ();
    active = [];
    finished = 0;
    failed = 0;
    drawn_s = neg_infinity;
    live_len = 0;
  }

let start t ~workload ~scale =
  let label = Printf.sprintf "%s(%s)" workload scale in
  let h = { h_label = label; h_job = None; h_instr = 0; h_evictions = 0 } in
  Mutex.protect t.lock (fun () ->
      t.active <- t.active @ [ h ];
      if t.plain then
        Printf.eprintf "[%d/%d] %s started\n%!" (t.finished + List.length t.active) t.total label
      else redraw t);
  h

let attach t h machine sigil =
  Mutex.protect t.lock (fun () -> h.h_job <- Some (machine, sigil));
  Dbi.Machine.on_epoch machine (fun _ ->
      Mutex.protect t.lock (fun () ->
          sample h;
          if (not t.plain) && now_s () -. t.drawn_s >= redraw_interval_s then redraw t))

let finish t h ~ok =
  Mutex.protect t.lock (fun () ->
      sample h;
      t.active <- List.filter (fun x -> x != h) t.active;
      t.finished <- t.finished + 1;
      if not ok then t.failed <- t.failed + 1;
      if t.plain then
        Printf.eprintf "[%d/%d] %s %s%s\n%!" t.finished t.total h.h_label
          (if ok then "done" else "FAILED")
          (if Option.is_none h.h_job then ""
           else
             Printf.sprintf " (%.1fMi, %d evictions)" (float_of_int h.h_instr /. 1e6)
               h.h_evictions)
      else redraw t)

let close t =
  Mutex.protect t.lock (fun () ->
      if t.live_len > 0 then Printf.eprintf "\r%s\r%!" (String.make t.live_len ' ');
      t.live_len <- 0)
