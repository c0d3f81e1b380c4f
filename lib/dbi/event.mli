(** Primitive guest events observed by instrumentation tools.

    The machine ({!Machine}) reduces a running guest workload to the same
    collection of primitives Valgrind's intermediate representation exposes:
    function entries and exits, byte-addressed memory accesses, integer and
    floating-point operations, conditional branches and system calls. Tools
    ({!Tool}) receive these through callbacks; this module only defines the
    shared vocabulary. *)

(** Kind of a computational operation, as logged by the (modified) Callgrind
    front end the paper describes ("functionality to log floating point and
    integer operations"). *)
type op_kind =
  | Int_op
  | Fp_op

(** Memory-access direction. *)
type access =
  | Read
  | Write

(** A contiguous byte range [(addr, len)] of guest memory, used to describe
    the buffers a system call reads from or writes into. *)
type byte_range = int * int

(** [range_valid (addr, len)] holds when the range lies in the guest address
    space and has positive length. *)
val range_valid : byte_range -> bool
