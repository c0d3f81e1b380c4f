(* An executable spec of Sigil's shadow and profile semantics, written
   longhand from the paper's definitions: the Table I shadow fields, the
   unique/non-unique rule per (function, call), the re-use episodes and
   versions of the reuse study, and the sequential event file of §II-C2.
   It is a tool of its own, slow on purpose: one hash-table entry per
   shadowed byte, the open calls as a plain list, no packing, no chunk
   planes, no run coalescing. It shares no code with [Sigil.Shadow],
   [Sigil.Tool], [Sigil.Profile] or [Sigil.Reuse], so a wrong kernel in
   the engine cannot fail both sides the same way. [check] runs a guest
   under the real tool and the spec at once and compares everything the
   tool reports. *)

type ctx = Dbi.Context.id

(* Table I, for one byte and the version it holds. A byte enters the
   table at its first read or write and leaves it when its chunk is
   evicted; a write replaces the entry with a new version. *)
type byte = {
  writer : ctx; (* the producer: root while never written (program input) *)
  writer_call : int; (* the producer's call number, 0 while never written *)
  mutable reader : (ctx * int) option; (* last reader and its call *)
  mutable episode_reads : int; (* reads by the last reader in its episode *)
  mutable first_read : int; (* clock of the episode's first and last reads *)
  mutable last_read : int;
  mutable nonunique : int; (* reads of this version that were re-uses *)
}

type stats = {
  mutable input_unique : int;
  mutable input_nonunique : int;
  mutable local_unique : int;
  mutable local_nonunique : int;
  mutable written : int;
  mutable int_ops : int;
  mutable fp_ops : int;
  mutable calls : int;
}

type reuse = {
  mutable episodes : int;
  mutable reused_episodes : int;
  mutable reuse_reads : int;
  mutable lifetime_sum : int;
  hist : (int, int) Hashtbl.t; (* lifetime bin start -> episodes *)
}

(* One open call and the fragment of it that runs now: its operations and
   the transfers it consumed, summed per (producer ctx, producer call). *)
type frame = {
  ctx : ctx;
  call : int;
  mutable int_ops : int;
  mutable fp_ops : int;
  xfers : (ctx * int, int * int) Hashtbl.t; (* -> (bytes, unique bytes) *)
}

type t = {
  machine : Dbi.Machine.t;
  bytes : (int, byte) Hashtbl.t; (* by byte address *)
  max_chunks : int option;
  chunks : int Queue.t; (* live 4 KiB chunk numbers, first touch first *)
  live : (int, unit) Hashtbl.t;
  mutable evictions : int;
  stats : (ctx, stats) Hashtbl.t;
  edges : (ctx * ctx, int * int) Hashtbl.t; (* -> (bytes, unique bytes) *)
  reuse : (ctx, reuse) Hashtbl.t;
  mutable zero : int; (* versions by re-use count: 0, 1-9, more *)
  mutable low : int;
  mutable high : int;
  mutable stack : frame list; (* innermost first; the root frame last *)
  mutable events : Sigil.Event_log.entry list; (* newest first *)
}

let chunk_bytes = 4096
let lifetime_bin = 1000

let new_frame ctx call = { ctx; call; int_ops = 0; fp_ops = 0; xfers = Hashtbl.create 8 }

let create ?max_chunks machine =
  {
    machine;
    bytes = Hashtbl.create 4096;
    max_chunks;
    chunks = Queue.create ();
    live = Hashtbl.create 64;
    evictions = 0;
    stats = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    reuse = Hashtbl.create 64;
    zero = 0;
    low = 0;
    high = 0;
    stack = [ new_frame Dbi.Context.root 0 ];
    events = [];
  }

let stats t ctx =
  match Hashtbl.find_opt t.stats ctx with
  | Some s -> s
  | None ->
    let s =
      { input_unique = 0; input_nonunique = 0; local_unique = 0; local_nonunique = 0;
        written = 0; int_ops = 0; fp_ops = 0; calls = 0 }
    in
    Hashtbl.add t.stats ctx s;
    s

let reuse t ctx =
  match Hashtbl.find_opt t.reuse ctx with
  | Some r -> r
  | None ->
    let r =
      { episodes = 0; reused_episodes = 0; reuse_reads = 0; lifetime_sum = 0;
        hist = Hashtbl.create 8 }
    in
    Hashtbl.add t.reuse ctx r;
    r

let add2 tbl key a b =
  let a0, b0 = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (a0 + a, b0 + b)

let emit t e = t.events <- e :: t.events
let top t = List.hd t.stack

(* An episode is one call's consecutive reads of a byte; a re-used one
   (more than one read) lives from its first read to its last. *)
let end_episode t b =
  match b.reader with
  | Some (reader, _) when b.episode_reads > 0 ->
    let r = reuse t reader in
    r.episodes <- r.episodes + 1;
    if b.episode_reads > 1 then begin
      let lifetime = b.last_read - b.first_read in
      r.reused_episodes <- r.reused_episodes + 1;
      r.reuse_reads <- r.reuse_reads + b.episode_reads - 1;
      r.lifetime_sum <- r.lifetime_sum + lifetime;
      let bin = lifetime / lifetime_bin * lifetime_bin in
      Hashtbl.replace r.hist bin (1 + Option.value ~default:0 (Hashtbl.find_opt r.hist bin))
    end
  | Some _ | None -> ()

(* A version ends on an overwrite, an eviction or program end, and with
   it the episode its last reader had open. *)
let end_version t b =
  end_episode t b;
  if b.nonunique = 0 then t.zero <- t.zero + 1
  else if b.nonunique <= 9 then t.low <- t.low + 1
  else t.high <- t.high + 1

(* FIFO memory limit: touching a chunk that is not live makes it live,
   evicting the chunk touched first when [max_chunks] are live already.
   An evicted byte forgets everything, as if never touched. *)
let touch t addr =
  let chunk = addr / chunk_bytes in
  if not (Hashtbl.mem t.live chunk) then begin
    (match t.max_chunks with
    | Some max when Hashtbl.length t.live >= max ->
      let old = Queue.pop t.chunks in
      Hashtbl.remove t.live old;
      t.evictions <- t.evictions + 1;
      for a = old * chunk_bytes to ((old + 1) * chunk_bytes) - 1 do
        match Hashtbl.find_opt t.bytes a with
        | Some b ->
          end_version t b;
          Hashtbl.remove t.bytes a
        | None -> ()
      done
    | Some _ | None -> ());
    Hashtbl.add t.live chunk ();
    Queue.push chunk t.chunks
  end

let fresh writer writer_call =
  { writer; writer_call; reader = None; episode_reads = 0; first_read = 0; last_read = 0;
    nonunique = 0 }

(* A read is non-unique only when the same (ctx, call) already read this
   version. Table I keeps one last reader per byte, so "already read" is
   "was the last to read": a read by anyone else in between makes the
   next read unique again. *)
let read_byte t f addr =
  touch t addr;
  let b =
    match Hashtbl.find_opt t.bytes addr with
    | Some b -> b
    | None ->
      let b = fresh Dbi.Context.root 0 in
      Hashtbl.add t.bytes addr b;
      b
  in
  let now = Dbi.Machine.now t.machine in
  let unique = b.reader <> Some (f.ctx, f.call) in
  if unique then begin
    end_episode t b;
    b.reader <- Some (f.ctx, f.call);
    b.episode_reads <- 1;
    b.first_read <- now;
    b.last_read <- now
  end
  else begin
    b.episode_reads <- b.episode_reads + 1;
    b.last_read <- now;
    b.nonunique <- b.nonunique + 1
  end;
  let u = if unique then 1 else 0 in
  let s = stats t f.ctx in
  (* local when the consumer produced the byte itself, input otherwise *)
  if b.writer = f.ctx then begin
    s.local_unique <- s.local_unique + u;
    s.local_nonunique <- s.local_nonunique + 1 - u
  end
  else begin
    s.input_unique <- s.input_unique + u;
    s.input_nonunique <- s.input_nonunique + 1 - u;
    add2 t.edges (b.writer, f.ctx) 1 u
  end;
  (* only a read of the current call's own writes orders nothing *)
  if b.writer <> f.ctx || b.writer_call <> f.call then add2 f.xfers (b.writer, b.writer_call) 1 u

let write_byte t f addr =
  touch t addr;
  Option.iter (end_version t) (Hashtbl.find_opt t.bytes addr);
  Hashtbl.replace t.bytes addr (fresh f.ctx f.call)

(* A fragment ends when its call makes a call or returns: its operations,
   then its transfers in (producer ctx, producer call) order. *)
let end_fragment t f =
  if f.int_ops > 0 || f.fp_ops > 0 then
    emit t (Sigil.Event_log.Comp { ctx = f.ctx; call = f.call; int_ops = f.int_ops; fp_ops = f.fp_ops });
  f.int_ops <- 0;
  f.fp_ops <- 0;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) f.xfers []
  |> List.sort compare
  |> List.iter (fun ((src_ctx, src_call), (bytes, unique_bytes)) ->
         emit t
           (Sigil.Event_log.Xfer
              { src_ctx; src_call; dst_ctx = f.ctx; dst_call = f.call; bytes; unique_bytes }));
  Hashtbl.reset f.xfers

let tool t : Dbi.Tool.t =
  {
    name = "sigil-spec";
    on_enter =
      (fun ~ctx ~fn:_ ~call ->
        end_fragment t (top t);
        (stats t ctx).calls <- (stats t ctx).calls + 1;
        emit t (Sigil.Event_log.Call { ctx; call });
        t.stack <- new_frame ctx call :: t.stack);
    on_leave =
      (fun ~ctx:_ ~fn:_ ->
        match t.stack with
        | f :: (_ :: _ as rest) ->
          end_fragment t f;
          emit t (Sigil.Event_log.Ret { ctx = f.ctx; call = f.call });
          t.stack <- rest
        | [ _ ] | [] -> ());
    on_read =
      (fun ~ctx:_ ~addr ~size ->
        for a = addr to addr + size - 1 do
          read_byte t (top t) a
        done);
    on_write =
      (fun ~ctx:_ ~addr ~size ->
        let f = top t in
        (stats t f.ctx).written <- (stats t f.ctx).written + size;
        for a = addr to addr + size - 1 do
          write_byte t f a
        done);
    on_op =
      (fun ~ctx:_ ~kind ~count ->
        let f = top t in
        let s = stats t f.ctx in
        match kind with
        | Dbi.Event.Int_op ->
          s.int_ops <- s.int_ops + count;
          f.int_ops <- f.int_ops + count
        | Dbi.Event.Fp_op ->
          s.fp_ops <- s.fp_ops + count;
          f.fp_ops <- f.fp_ops + count);
    on_branch = (fun ~ctx:_ ~taken:_ -> ());
    on_finish =
      (fun () ->
        List.iter (end_fragment t) t.stack;
        Hashtbl.iter (fun _ b -> end_version t b) t.bytes;
        Hashtbl.reset t.bytes);
  }

(* {2 Comparison with the real tool} *)

let mismatch fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

let rec first_diff i show a b =
  match (a, b) with
  | [], [] -> Ok ()
  | x :: a, y :: b when x = y -> first_diff (i + 1) show a b
  | x :: _, y :: _ -> mismatch "at %d: tool %s, spec %s" i (show x) (show y)
  | x :: _, [] -> mismatch "at %d: tool %s, spec ends" i (show x)
  | [], y :: _ -> mismatch "at %d: tool ends, spec %s" i (show y)

let table1 (s : Sigil.Profile_io.ctx_stats) =
  [ s.calls; s.input_unique; s.input_nonunique; s.local_unique; s.local_nonunique; s.written;
    s.int_ops; s.fp_ops ]

let spec_table1 t ctx =
  match Hashtbl.find_opt t.stats ctx with
  | None -> [ 0; 0; 0; 0; 0; 0; 0; 0 ]
  | Some s ->
    [ s.calls; s.input_unique; s.input_nonunique; s.local_unique; s.local_nonunique; s.written;
      s.int_ops; s.fp_ops ]

let ints l = String.concat " " (List.map string_of_int l)

let compare_profile t tool =
  let snap = Sigil.Profile_io.snapshot_of_tool tool in
  let* () =
    List.fold_left
      (fun acc (s : Sigil.Profile_io.ctx_stats) ->
        let* () = acc in
        if table1 s = spec_table1 t s.ctx then Ok ()
        else
          mismatch "Table I of %s (calls in-u in-n loc-u loc-n written iops fops): tool %s, spec %s"
            (Sigil.Profile_io.path snap s.ctx) (ints (table1 s)) (ints (spec_table1 t s.ctx)))
      (Ok ()) (Sigil.Profile_io.contexts snap)
  in
  let tool_edges =
    List.map
      (fun (e : Sigil.Profile_io.edge) -> [ e.src; e.dst; e.bytes; e.unique_bytes ])
      (Sigil.Profile_io.edges snap)
    |> List.sort compare
  in
  let spec_edges =
    Hashtbl.fold (fun (src, dst) (bytes, unique) acc -> [ src; dst; bytes; unique ] :: acc) t.edges []
    |> List.sort compare
  in
  Result.map_error (( ^ ) "edge (src dst bytes unique) ") (first_diff 0 ints tool_edges spec_edges)

let compare_reuse t tool =
  let r = Sigil.Tool.reuse tool in
  let bins = Sigil.Reuse.version_bins r in
  let* () =
    if [ bins.zero; bins.low; bins.high ] = [ t.zero; t.low; t.high ] then Ok ()
    else
      mismatch "version bins (0, 1-9, >9): tool %d %d %d, spec %d %d %d" bins.zero bins.low
        bins.high t.zero t.low t.high
  in
  let ctxs = Dbi.Context.count (Dbi.Machine.contexts t.machine) in
  List.fold_left
    (fun acc ctx ->
      let* () = acc in
      let f = Sigil.Reuse.fn_reuse r ctx in
      let tool_fields = [ f.episodes; f.reused_episodes; f.reuse_reads; f.lifetime_sum ] in
      let spec_fields, spec_hist =
        match Hashtbl.find_opt t.reuse ctx with
        | None -> ([ 0; 0; 0; 0 ], [])
        | Some s ->
          ( [ s.episodes; s.reused_episodes; s.reuse_reads; s.lifetime_sum ],
            List.sort compare (Hashtbl.fold (fun bin n acc -> (bin, n) :: acc) s.hist []) )
      in
      if tool_fields <> spec_fields then
        mismatch "fn_reuse of ctx %d (episodes reused reuse_reads lifetime_sum): tool %s, spec %s"
          ctx (ints tool_fields) (ints spec_fields)
      else if Sigil.Reuse.histogram r ctx <> spec_hist then
        mismatch "lifetime histogram of ctx %d differs" ctx
      else Ok ())
    (Ok ())
    (List.init ctxs Fun.id)

(* [check ?call_overhead ~options guest] runs [guest] under the real tool
   (configured by [options]; events collected when [collect_events] is
   set) and the spec side by side, then compares every context's Table I
   stats and every edge, the eviction count, and, as [options] turns them
   on, the reuse statistics and the whole event stream. [Ok] holds the
   tool, [Error] names the first difference. *)
let check ?call_overhead ~(options : Sigil.Options.t) guest =
  let engine = ref None and spec = ref None and log = ref [] in
  let event_sink =
    if options.collect_events then Some (fun e -> log := Sigil.Event_log.copy e :: !log) else None
  in
  let _ =
    Dbi.Runner.run ?call_overhead
      ~tools:
        [
          (fun m ->
            let x = Sigil.Tool.create ~options ?event_sink m in
            engine := Some x;
            Sigil.Tool.tool x);
          (fun m ->
            let x = create ?max_chunks:options.max_chunks m in
            spec := Some x;
            tool x);
        ]
      guest
  in
  let tool = Option.get !engine and t = Option.get !spec in
  let* () = compare_profile t tool in
  let* () =
    if Sigil.Tool.shadow_evictions tool = t.evictions then Ok ()
    else mismatch "evictions: tool %d, spec %d" (Sigil.Tool.shadow_evictions tool) t.evictions
  in
  let* () = if options.reuse_mode then compare_reuse t tool else Ok () in
  let* () =
    if options.collect_events then
      Result.map_error (( ^ ) "event ")
        (first_diff 0 Sigil.Event_log.entry_to_string (List.rev !log) (List.rev t.events))
    else Ok ()
  in
  Ok tool
