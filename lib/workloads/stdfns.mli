(** Shared "library" functions.

    The paper's candidate tables are full of libc / libm / libstdc++ /
    zlib functions ([strtof], [_ieee754_exp], [memcpy], [free],
    [sha1_block_data_order], [adler32], ...). The synthetic workloads call
    these shared guest implementations so the same function names appear
    across benchmarks with consistent computation/communication ratios.

    Conventions: [m] is the machine; addresses point into guest memory the
    caller owns; every function wraps its work in a {!Dbi.Guest.call} with
    the library function's name. *)

open Dbi

(** {2 libm — hot, compute-dense, tiny communication} *)

(** [ieee754_exp m ~arg ~res] reads an 8-byte double at [arg], burns the
    function's flop budget, writes 8 bytes at [res]. *)
val ieee754_exp : Machine.t -> arg:int -> res:int -> unit

val ieee754_log : Machine.t -> arg:int -> res:int -> unit
val ieee754_expf : Machine.t -> arg:int -> res:int -> unit
val ieee754_logf : Machine.t -> arg:int -> res:int -> unit
val ieee754_sqrt : Machine.t -> arg:int -> res:int -> unit

(** [mpn_mul m ~a ~b ~res] multi-precision multiply: reads two 32-byte
    limbs, writes 64 bytes. *)
val mpn_mul : Machine.t -> a:int -> b:int -> res:int -> unit

val mpn_lshift : Machine.t -> src:int -> dst:int -> unit
val mpn_rshift : Machine.t -> src:int -> dst:int -> unit
val isnan : Machine.t -> arg:int -> bool

(** {2 libc string/memory — communication-bound} *)

(** [strtof m ~src ~dst] parses a 12-byte decimal field into a 4-byte
    float. *)
val strtof : Machine.t -> src:int -> dst:int -> unit

val memcpy : Machine.t -> dst:int -> src:int -> len:int -> unit
val memmove : Machine.t -> dst:int -> src:int -> len:int -> unit

(** [memchr m ~src ~len rng] scans for a byte; the match position is drawn
    from [rng] (guest-visible work is the scan itself). *)
val memchr : Machine.t -> src:int -> len:int -> Prng.t -> int

val string_compare : Machine.t -> a:int -> b:int -> len:int -> unit
val string_assign : Machine.t -> dst:int -> src:int -> len:int -> unit

(** {2 Allocation — the paper's worst accelerator candidates} *)

(** [operator_new m size] allocates via the guest allocator pseudo-logic
    (touches the free-list head and a 16-byte header) and returns the
    payload address. *)
val operator_new : Machine.t -> int -> int

val free : Machine.t -> int -> unit

(** [std_vector_ctor m ~elems ~elem_size] models [std::vector]
    construction: header writes + [operator_new] for storage; returns the
    data address. *)
val std_vector_ctor : Machine.t -> elems:int -> elem_size:int -> int

(** [std_basic_string m ~len] builds a string object, returns its buffer. *)
val std_basic_string : Machine.t -> len:int -> int

val std_locale : Machine.t -> unit
val dl_addr : Machine.t -> unit

(** {2 stdio} *)

(** [io_file_xsgetn m ~dst ~len] refills from an input stream: a read
    syscall into the stream buffer then a copy out. *)
val io_file_xsgetn : Machine.t -> dst:int -> len:int -> unit

val io_sputbackc : Machine.t -> buf:int -> unit

(** [write_file m ~src ~len] writes a buffer out through a syscall. *)
val write_file : Machine.t -> src:int -> len:int -> unit

(** {2 Checksums / compression (dedup)} *)

(** [sha1_block_data_order m ~buf ~len ~state] hashes [len] bytes into the
    20-byte state — high ops per byte. *)
val sha1_block_data_order : Machine.t -> buf:int -> len:int -> state:int -> unit

val adler32 : Machine.t -> buf:int -> len:int -> res:int -> unit

(** [tr_flush_block m ~src ~len ~dst] models zlib's block flush: reads the
    window, emits roughly half the bytes. Returns compressed length. *)
val tr_flush_block : Machine.t -> src:int -> len:int -> dst:int -> int

(** {2 Hashtables (canneal, dedup)} *)

(** [hashtable_search m ~buckets ~key ~probes] walks [probes] chain
    entries, comparing an 8-byte key each time; returns the bucket slot
    address it stopped at. *)
val hashtable_search : Machine.t -> buckets:int -> key:int -> probes:int -> int

(** {2 PRNG chain (streamcluster)}

    [lrand48] calls [nrand48_r] calls [drand48_iterate], each touching the
    shared 16-byte state — the serial dependency chain the paper finds on
    streamcluster's critical path. *)

(** [lrand48 m ~state rng] returns a host-side pseudo-random int while the
    guest walks the glibc call chain over [state]. *)
val lrand48 : Machine.t -> state:int -> Prng.t -> int
