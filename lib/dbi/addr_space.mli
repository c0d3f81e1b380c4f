(** Guest data address space.

    A byte-addressed flat space with a heap (first-fit free-list allocator
    over a bump region) and a downward-growing stack for call-scoped scratch
    buffers. No data is actually stored — tools only care about *which*
    addresses a workload touches — but allocation is checked: live blocks
    never overlap, frees must match a live allocation, and stack frames nest.

    Layout: heap grows up from {!heap_base} (1 MiB); stack grows down from
    {!stack_top} (1 GiB), so all data addresses fit below 2^30 and shadow
    memory can use a flat first-level table. Function code pages live in a
    disjoint region above, managed by {!Symbol}; code is fetched, never read
    as data, so it is not shadowed. *)

type t

val heap_base : int
val stack_top : int

val create : unit -> t

(** [alloc t size] returns the base address of a fresh block of [size] > 0
    bytes, 8-byte aligned. Reuses freed blocks first-fit before growing the
    heap. *)
val alloc : t -> int -> int

(** [free t addr] releases the live block based at [addr].

    @raise Invalid_argument if [addr] is not a live block base. *)
val free : t -> int -> unit

(** [push_frame t size] allocates a stack frame and returns its base (lowest)
    address. *)
val push_frame : t -> int -> int

(** [pop_frame t] releases the most recent frame.

    @raise Invalid_argument if no frame is live. *)
val pop_frame : t -> unit

(** [live_block t addr] returns [Some (base, size)] when [addr] falls inside
    a live heap block. Stack addresses are not tracked per block. *)
val live_block : t -> int -> (int * int) option

(** Total bytes currently allocated on the heap. *)
val heap_live_bytes : t -> int

(** Number of live heap blocks. *)
val live_blocks : t -> int
