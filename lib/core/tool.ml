(* Per-fragment transfer accumulator: key packs (src context, src call). *)
let xfer_key src_ctx src_call = (src_ctx lsl 40) lor (src_call land ((1 lsl 40) - 1))
let xfer_src key = key lsr 40
let xfer_call key = key land ((1 lsl 40) - 1)

(* Transfers consumed by the open fragment, summed per producer key. A
   call flushes its caller's fragment before it runs, so only the
   innermost frame ever has transfers pending and one accumulator serves
   the whole stack. Open addressing with linear probing over int arrays
   (load at most one half); [used] lists the occupied slots, and a flush
   sorts it by key in place, emits, and empties exactly those slots. *)
type xfers = {
  mutable keys : int array; (* [no_key] marks a free slot *)
  mutable bytes : int array;
  mutable unique : int array;
  mutable used : int array; (* occupied slots, [0, n) *)
  mutable n : int;
}

let no_key = -1 (* keys are >= 0: context ids and call numbers are *)

let new_xfers capacity =
  {
    keys = Array.make capacity no_key;
    bytes = Array.make capacity 0;
    unique = Array.make capacity 0;
    used = Array.make (capacity / 2) 0;
    n = 0;
  }

(* The first slot of [key]'s probe sequence: multiply to spread the call
   bits, fold the context bits (40 and up) down. *)
let[@inline] home key mask =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land mask

(* [key]'s slot, or the free slot where it belongs. *)
let find_slot keys key =
  let mask = Array.length keys - 1 in
  let i = ref (home key mask) in
  while keys.(!i) <> key && keys.(!i) <> no_key do
    i := (!i + 1) land mask
  done;
  !i

let grow_xfers x =
  let keys = x.keys and bytes = x.bytes and unique = x.unique and used = x.used in
  let capacity = 2 * Array.length keys in
  x.keys <- Array.make capacity no_key;
  x.bytes <- Array.make capacity 0;
  x.unique <- Array.make capacity 0;
  x.used <- Array.make (capacity / 2) 0;
  for u = 0 to x.n - 1 do
    let o = used.(u) in
    let i = find_slot x.keys keys.(o) in
    x.keys.(i) <- keys.(o);
    x.bytes.(i) <- bytes.(o);
    x.unique.(i) <- unique.(o);
    x.used.(u) <- i
  done

let xfers_add x key ~bytes ~unique_bytes =
  if 2 * (x.n + 1) > Array.length x.keys then grow_xfers x;
  let i = find_slot x.keys key in
  if x.keys.(i) = no_key then begin
    x.keys.(i) <- key;
    x.bytes.(i) <- 0;
    x.unique.(i) <- 0;
    x.used.(x.n) <- i;
    x.n <- x.n + 1
  end;
  x.bytes.(i) <- x.bytes.(i) + bytes;
  x.unique.(i) <- x.unique.(i) + unique_bytes

(* Heapsort of [used.(0 .. n-1)] by key: in place, no allocation. *)
let rec sift keys used root n =
  let child = (2 * root) + 1 in
  if child < n then begin
    let child =
      if child + 1 < n && keys.(used.(child + 1)) > keys.(used.(child)) then child + 1 else child
    in
    if keys.(used.(child)) > keys.(used.(root)) then begin
      let s = used.(root) in
      used.(root) <- used.(child);
      used.(child) <- s;
      sift keys used child n
    end
  end

let sort_used x =
  let keys = x.keys and used = x.used and n = x.n in
  for root = (n / 2) - 1 downto 0 do
    sift keys used root n
  done;
  for last = n - 1 downto 1 do
    let s = used.(0) in
    used.(0) <- used.(last);
    used.(last) <- s;
    sift keys used 0 last
  done

(* Call frames are pooled: a frame is reused by every call that runs at
   its depth, so entering a call allocates nothing. *)
type frame = {
  mutable ctx : Dbi.Context.id;
  mutable call : int;
  mutable frag_int_ops : int;
  mutable frag_fp_ops : int;
}

type t = {
  options : Options.t;
  machine : Dbi.Machine.t;
  shadow : Shadow.t;
  profile : Profile.t;
  reuse : Reuse.t;
  line : Line_shadow.t option;
  sink : Event_log.sink option; (* where produced events flow *)
  scratch : Event_log.scratch; (* the entries lent to [sink], refilled per event *)
  events_dispatched : int ref; (* telemetry: entries pushed into the sink *)
  mutable frames : frame array; (* slot 0 = synthetic root; grows by doubling *)
  mutable depth : int; (* slot of the innermost frame *)
  xfers : xfers; (* the innermost frame's pending transfers *)
}

let new_frame () = { ctx = Dbi.Context.root; call = 0; frag_int_ops = 0; frag_fp_ops = 0 }

let initial_frames = 64

let create ?(options = Options.default) ?event_sink machine =
  let reuse = Reuse.create () in
  (* the tool keeps no entries: events need somewhere to go, and a sink
     turns them on even without the option *)
  if options.Options.collect_events && event_sink = None then
    invalid_arg "Sigil.Tool.create: collect_events needs an event_sink";
  let events_dispatched = ref 0 in
  let sink =
    Option.map
      (fun emit e ->
        incr events_dispatched;
        emit e)
      event_sink
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
    sink;
    scratch = Event_log.scratch ();
    events_dispatched;
    frames = Array.init initial_frames (fun _ -> new_frame ());
    depth = 0;
    xfers = new_xfers 16;
  }

let flush_fragment t frame =
  match t.sink with
  | None -> ()
  | Some emit ->
    if frame.frag_int_ops > 0 || frame.frag_fp_ops > 0 then
      emit
        (Event_log.set_comp t.scratch ~ctx:frame.ctx ~call:frame.call ~int_ops:frame.frag_int_ops
           ~fp_ops:frame.frag_fp_ops);
    frame.frag_int_ops <- 0;
    frame.frag_fp_ops <- 0;
    let x = t.xfers in
    if x.n > 0 then begin
      (* sorted by key, for reproducible event files *)
      sort_used x;
      for u = 0 to x.n - 1 do
        let i = x.used.(u) in
        let key = x.keys.(i) in
        emit
          (Event_log.set_xfer t.scratch ~src_ctx:(xfer_src key) ~src_call:(xfer_call key)
             ~dst_ctx:frame.ctx ~dst_call:frame.call ~bytes:x.bytes.(i) ~unique_bytes:x.unique.(i));
        x.keys.(i) <- no_key
      done;
      x.n <- 0
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
let[@inline] xfer_add t frame ~producer ~producer_call ~bytes ~unique_bytes =
  if producer <> frame.ctx || producer_call <> frame.call then
    xfers_add t.xfers (xfer_key producer producer_call) ~bytes ~unique_bytes

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
    xfer_add t frame ~producer:r.Shadow.producer ~producer_call:r.Shadow.producer_call ~bytes:1
      ~unique_bytes:(if r.Shadow.unique then 1 else 0)

let tool t : Dbi.Tool.t =
  let line_mode = t.line <> None in
  let log = t.sink <> None in
  (* Range reads: one shadow traversal for the whole access, then one
     profile update and one transfer-accumulator hit per coalesced run. *)
  let on_run ~producer ~producer_call ~bytes ~unique_bytes =
    let frame = top t in
    Profile.record_run t.profile ~producer ~consumer:frame.ctx ~bytes ~unique_bytes;
    if log then xfer_add t frame ~producer ~producer_call ~bytes ~unique_bytes
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
          | Some emit -> emit (Event_log.set_call t.scratch ~ctx ~call)
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
          | Some emit -> emit (Event_log.set_ret t.scratch ~ctx:frame.ctx ~call:frame.call)
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
