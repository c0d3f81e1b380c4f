(* Per-fragment transfer accumulator: key packs (src context, src call). *)
let xfer_key src_ctx src_call = (src_ctx lsl 40) lor (src_call land ((1 lsl 40) - 1))
let xfer_src key = key lsr 40
let xfer_call key = key land ((1 lsl 40) - 1)

type xfer_acc = { mutable bytes : int; mutable unique : int }

(* Call frames are pooled: a frame is reused by every call that runs at
   its depth, so entering a call allocates nothing. *)
type frame = {
  mutable ctx : Dbi.Context.id;
  mutable call : int;
  mutable frag_int_ops : int;
  mutable frag_fp_ops : int;
  frag_xfers : (int, xfer_acc) Hashtbl.t;
}

type t = {
  options : Options.t;
  machine : Dbi.Machine.t;
  shadow : Shadow.t;
  profile : Profile.t;
  reuse : Reuse.t;
  line : Line_shadow.t option;
  log : Event_log.t option; (* in-memory sink, when we own one *)
  sink : Event_log.sink option; (* where produced events flow *)
  events_dispatched : int ref; (* telemetry: entries pushed into the sink *)
  mutable frames : frame array; (* slot 0 = synthetic root; grows by doubling *)
  mutable depth : int; (* slot of the innermost frame *)
}

let new_frame () =
  {
    ctx = Dbi.Context.root;
    call = 0;
    frag_int_ops = 0;
    frag_fp_ops = 0;
    frag_xfers = Hashtbl.create 8;
  }

let initial_frames = 64

let create ?(options = Options.default) ?event_sink machine =
  let reuse = Reuse.create () in
  (* an external sink turns event collection on even without the option *)
  let log, sink =
    match event_sink with
    | Some s -> (None, Some s)
    | None ->
      if options.Options.collect_events then
        let log = Event_log.create () in
        (Some log, Some (Event_log.memory_sink log))
      else (None, None)
  in
  let events_dispatched = ref 0 in
  let sink =
    Option.map
      (fun emit e ->
        incr events_dispatched;
        emit e)
      sink
  in
  let shadow =
    Shadow.create ~reuse:options.Options.reuse_mode ~track_writer_call:(sink <> None)
      ?max_chunks:options.Options.max_chunks ~sink:(Reuse.sink reuse) ()
  in
  {
    options;
    machine;
    shadow;
    profile = Profile.create ();
    reuse;
    line =
      (match options.Options.line_size with
      | Some size -> Some (Line_shadow.create ~line_size:size ())
      | None -> None);
    log;
    sink;
    events_dispatched;
    frames = Array.init initial_frames (fun _ -> new_frame ());
    depth = 0;
  }

let flush_fragment t frame =
  match t.sink with
  | None -> ()
  | Some emit ->
    if frame.frag_int_ops > 0 || frame.frag_fp_ops > 0 then
      emit
        (Event_log.Comp
           {
             ctx = frame.ctx;
             call = frame.call;
             int_ops = frame.frag_int_ops;
             fp_ops = frame.frag_fp_ops;
           });
    frame.frag_int_ops <- 0;
    frame.frag_fp_ops <- 0;
    if Hashtbl.length frame.frag_xfers > 0 then begin
      (* deterministic order for reproducible event files *)
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) frame.frag_xfers [] in
      List.iter
        (fun key ->
          let acc = Hashtbl.find frame.frag_xfers key in
          emit
            (Event_log.Xfer
               {
                 src_ctx = xfer_src key;
                 src_call = xfer_call key;
                 dst_ctx = frame.ctx;
                 dst_call = frame.call;
                 bytes = acc.bytes;
                 unique_bytes = acc.unique;
               }))
        (List.sort compare keys);
      (* [clear] keeps the buckets for the frame's next call *)
      Hashtbl.clear frame.frag_xfers
    end

let[@inline] top t = t.frames.(t.depth)

(* Makes the frame above the innermost one the innermost, for a new call. *)
let push t ctx call =
  let depth = t.depth + 1 in
  if depth = Array.length t.frames then
    t.frames <-
      Array.init (2 * depth) (fun i ->
          if i < depth then t.frames.(i) else new_frame ());
  let frame = t.frames.(depth) in
  frame.ctx <- ctx;
  frame.call <- call;
  t.depth <- depth

(* Dependency edges also cover a function consuming data from an earlier
   call of itself (the PRNG-state chains of §IV-C); only reads of the
   current call's own writes impose no ordering. *)
let[@inline] xfer_add frame ~producer ~producer_call ~bytes ~unique_bytes =
  if producer <> frame.ctx || producer_call <> frame.call then begin
    let key = xfer_key producer producer_call in
    let acc =
      try Hashtbl.find frame.frag_xfers key
      with Not_found ->
        let acc = { bytes = 0; unique = 0 } in
        Hashtbl.add frame.frag_xfers key acc;
        acc
    in
    acc.bytes <- acc.bytes + bytes;
    acc.unique <- acc.unique + unique_bytes
  end

(* Per-byte reference path (Options.per_byte_shadow): the pre-range
   implementation, kept for differential tests and the ablation. *)
let byte_read t frame addr =
  let r =
    Shadow.read t.shadow ~ctx:frame.ctx ~call:frame.call ~now:(Dbi.Machine.now t.machine) addr
  in
  Profile.record_read t.profile ~producer:r.Shadow.producer ~consumer:frame.ctx
    ~unique:r.Shadow.unique ~bytes:1;
  match t.sink with
  | None -> ()
  | Some _ ->
    xfer_add frame ~producer:r.Shadow.producer ~producer_call:r.Shadow.producer_call ~bytes:1
      ~unique_bytes:(if r.Shadow.unique then 1 else 0)

let tool t : Dbi.Tool.t =
  let line_mode = t.line <> None in
  let log = t.sink <> None in
  (* Range reads: one shadow traversal for the whole access, then one
     profile update and one transfer-accumulator hit per coalesced run. *)
  let on_run ~producer ~producer_call ~bytes ~unique_bytes =
    let frame = top t in
    Profile.record_run t.profile ~producer ~consumer:frame.ctx ~bytes ~unique_bytes;
    if log then xfer_add frame ~producer ~producer_call ~bytes ~unique_bytes
  in
  {
    name = "sigil";
    on_enter =
      (fun ~ctx ~fn:_ ~call ->
        if not line_mode then begin
          let parent = top t in
          flush_fragment t parent;
          Profile.record_call t.profile ~ctx;
          (match t.sink with
          | Some emit -> emit (Event_log.Call { ctx; call })
          | None -> ());
          push t ctx call
        end);
    on_leave =
      (fun ~ctx:_ ~fn:_ ->
        (* an unbalanced leave at the root is ignored; the machine
           validates, be safe *)
        if (not line_mode) && t.depth > 0 then begin
          let frame = top t in
          flush_fragment t frame;
          (match t.sink with
          | Some emit -> emit (Event_log.Ret { ctx = frame.ctx; call = frame.call })
          | None -> ());
          t.depth <- t.depth - 1
        end);
    on_read =
      (fun ~ctx:_ ~addr ~size ->
        match t.line with
        | Some line -> Line_shadow.touch line ~now:(Dbi.Machine.now t.machine) addr size
        | None ->
          let frame = top t in
          if t.options.Options.per_byte_shadow then
            for i = 0 to size - 1 do
              byte_read t frame (addr + i)
            done
          else
            Shadow.read_range t.shadow ~ctx:frame.ctx ~call:frame.call
              ~now:(Dbi.Machine.now t.machine) addr size on_run);
    on_write =
      (fun ~ctx ~addr ~size ->
        match t.line with
        | Some line -> Line_shadow.touch line ~now:(Dbi.Machine.now t.machine) addr size
        | None ->
          let frame = top t in
          Profile.record_write t.profile ~ctx ~bytes:size;
          let now = Dbi.Machine.now t.machine in
          if t.options.Options.per_byte_shadow then
            for i = 0 to size - 1 do
              Shadow.write t.shadow ~ctx:frame.ctx ~call:frame.call ~now (addr + i)
            done
          else Shadow.write_range t.shadow ~ctx:frame.ctx ~call:frame.call ~now addr size);
    on_op =
      (fun ~ctx ~kind ~count ->
        if not line_mode then begin
          Profile.record_ops t.profile ~ctx kind count;
          let frame = top t in
          match kind with
          | Dbi.Event.Int_op -> frame.frag_int_ops <- frame.frag_int_ops + count
          | Dbi.Event.Fp_op -> frame.frag_fp_ops <- frame.frag_fp_ops + count
        end);
    on_branch = (fun ~ctx:_ ~taken:_ -> ());
    on_finish =
      (fun () ->
        for depth = t.depth downto 0 do
          flush_fragment t t.frames.(depth)
        done;
        Shadow.flush t.shadow);
  }

let options t = t.options
let machine t = t.machine
let profile t = t.profile
let reuse t = t.reuse
let line_shadow t = t.line
let event_log t = t.log
let shadow_footprint_bytes t = Shadow.footprint_bytes t.shadow
let shadow_footprint_peak_bytes t = Shadow.footprint_peak_bytes t.shadow
let shadow_evictions t = Shadow.evictions t.shadow

let telemetry t =
  let unique, total = Profile.totals t.profile in
  Shadow.telemetry t.shadow
  @ (match t.line with Some line -> Line_shadow.telemetry line | None -> [])
  @ Telemetry.
      [
        count "events.dispatched" !(t.events_dispatched);
        count "profile.unique_read_bytes" unique;
        count "profile.read_bytes" total;
        gauge "profile.contexts" (List.length (Profile.contexts t.profile));
      ]
