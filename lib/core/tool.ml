(* Transfers consumed by the open fragment, summed per producer
   [Event_log.call_key]. Open addressing with linear probing over int arrays
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

(* Only the innermost call ever has an open fragment: a call flushes its
   caller's fragment before it runs, and a return flushes its own. So the
   tool keeps one fragment, owned by [(owner_ctx, owner_call)], and takes
   the call stack from the machine. A context is a call path, live at
   most once, so its latest call ([Dbi.Machine.call_number]) is the one
   running. Whenever the owner changes the fragment is empty: every
   callback but [on_enter] only moves ownership after a return. *)
type t = {
  options : Options.t;
  machine : Dbi.Machine.t;
  shadow : Shadow.t;
  profile : Profile.t;
  reuse : Reuse.t;
  line : Line_shadow.t option;
  sink : Event_log.sink option; (* where produced events flow *)
  scratch : Event_log.scratch; (* the entries lent to [sink], refilled per event *)
  mutable events_dispatched : int; (* telemetry: entries pushed into the sink *)
  mutable owner_ctx : Dbi.Context.id; (* the open fragment's call *)
  mutable owner_call : int;
  mutable int_ops : int; (* the open fragment's operations *)
  mutable fp_ops : int;
  xfers : xfers; (* the open fragment's pending transfers *)
}

let create ?(options = Options.default) ?event_sink machine =
  let reuse = Reuse.create () in
  (* the tool keeps no entries: events need somewhere to go, and a sink
     turns them on even without the option *)
  if options.Options.collect_events && event_sink = None then
    invalid_arg "Sigil.Tool.create: collect_events needs an event_sink";
  if options.Options.per_byte_shadow then
    invalid_arg "Sigil.Tool.create: per_byte_shadow is no longer supported";
  let shadow =
    Shadow.create ~reuse:options.Options.reuse_mode ~track_writer_call:(event_sink <> None)
      ?max_chunks:options.Options.max_chunks ~sink:(Reuse.sink reuse) ()
  in
  {
    options;
    machine;
    shadow;
    profile = Profile.create (Dbi.Machine.contexts machine);
    reuse;
    line =
      (match options.Options.line_size with
      | Some size -> Some (Line_shadow.create ~line_size:size ())
      | None -> None);
    sink = event_sink;
    scratch = Event_log.scratch ();
    events_dispatched = 0;
    owner_ctx = Dbi.Context.root;
    owner_call = 0;
    int_ops = 0;
    fp_ops = 0;
    xfers = new_xfers 16;
  }

let[@inline] emit t sink e =
  t.events_dispatched <- t.events_dispatched + 1;
  sink e

let flush_fragment t =
  match t.sink with
  | None -> ()
  | Some sink ->
    if t.int_ops > 0 || t.fp_ops > 0 then
      emit t sink
        (Event_log.set_comp t.scratch ~ctx:t.owner_ctx ~call:t.owner_call ~int_ops:t.int_ops
           ~fp_ops:t.fp_ops);
    t.int_ops <- 0;
    t.fp_ops <- 0;
    let x = t.xfers in
    if x.n > 0 then begin
      (* sorted by key, for reproducible event files *)
      sort_used x;
      for u = 0 to x.n - 1 do
        let i = x.used.(u) in
        let key = x.keys.(i) in
        emit t sink
          (Event_log.set_xfer t.scratch ~src_ctx:(Event_log.key_ctx key)
             ~src_call:(Event_log.key_call key) ~dst_ctx:t.owner_ctx ~dst_call:t.owner_call
             ~bytes:x.bytes.(i) ~unique_bytes:x.unique.(i));
        x.keys.(i) <- no_key
      done;
      x.n <- 0
    end

(* Makes [ctx], the context running now, the owner of the open fragment. *)
let[@inline] own t ctx =
  if ctx <> t.owner_ctx then begin
    t.owner_ctx <- ctx;
    t.owner_call <- Dbi.Machine.call_number t.machine ctx
  end

(* Dependency edges also cover a function consuming data from an earlier
   call of itself (the PRNG-state chains of §IV-C); only reads of the
   current call's own writes impose no ordering. *)
let[@inline] xfer_add t ~producer ~producer_call ~bytes ~unique_bytes =
  if producer <> t.owner_ctx || producer_call <> t.owner_call then
    xfers_add t.xfers (Event_log.call_key producer producer_call) ~bytes ~unique_bytes

(* Line mode shadows lines instead of bytes and skips per-function
   aggregation (§IV-B3): reads and writes touch the line records, and
   nothing else is listened to. *)
let line_tool t line : Dbi.Tool.t =
  let touch ~ctx:_ ~addr ~size =
    Line_shadow.touch line ~now:(Dbi.Machine.now t.machine) addr size
  in
  { (Dbi.Tool.nop "sigil") with on_read = touch; on_write = touch }

let byte_tool t : Dbi.Tool.t =
  let log = t.sink <> None in
  (* Range reads: one shadow traversal for the whole access, then one
     profile update and one transfer-accumulator hit per coalesced run. *)
  let on_run ~producer ~producer_call ~bytes ~unique_bytes =
    Profile.record_run t.profile ~producer ~consumer:t.owner_ctx ~bytes ~unique_bytes;
    if log then xfer_add t ~producer ~producer_call ~bytes ~unique_bytes
  in
  {
    name = "sigil";
    on_enter =
      (fun ~ctx ~fn:_ ~call ->
        flush_fragment t;
        Profile.record_call t.profile ~ctx;
        (match t.sink with
        | Some sink -> emit t sink (Event_log.set_call t.scratch ~ctx ~call)
        | None -> ());
        t.owner_ctx <- ctx;
        t.owner_call <- call);
    on_leave =
      (fun ~ctx ~fn:_ ->
        (* the machine never leaves the root; be safe *)
        if ctx <> Dbi.Context.root then begin
          own t ctx;
          flush_fragment t;
          match t.sink with
          | Some sink -> emit t sink (Event_log.set_ret t.scratch ~ctx ~call:t.owner_call)
          | None -> ()
        end);
    on_read =
      (fun ~ctx ~addr ~size ->
        own t ctx;
        Shadow.read_range t.shadow ~ctx ~call:t.owner_call ~now:(Dbi.Machine.now t.machine) addr
          size on_run);
    on_write =
      (fun ~ctx ~addr ~size ->
        own t ctx;
        Profile.record_write t.profile ~ctx ~bytes:size;
        Shadow.write_range t.shadow ~ctx ~call:t.owner_call ~now:(Dbi.Machine.now t.machine) addr
          size);
    on_op =
      (fun ~ctx ~kind ~count ->
        own t ctx;
        Profile.record_ops t.profile ~ctx kind count;
        match kind with
        | Dbi.Event.Int_op -> t.int_ops <- t.int_ops + count
        | Dbi.Event.Fp_op -> t.fp_ops <- t.fp_ops + count);
    on_branch = (fun ~ctx:_ ~taken:_ -> ());
    on_finish =
      (fun () ->
        flush_fragment t;
        Shadow.flush t.shadow);
  }

let tool t = match t.line with Some line -> line_tool t line | None -> byte_tool t

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
        count "events.dispatched" t.events_dispatched;
        count "profile.unique_read_bytes" unique;
        count "profile.read_bytes" total;
        gauge "profile.contexts" (List.length (Profile.contexts t.profile));
      ]
