(** Calling-context tree.

    Sigil and Callgrind both "keep separate accounting of costs for functions
    called through different contexts": the same function reached through two
    different call paths is two distinct cost nodes (the paper's D1/D2 in
    Fig. 2). A context is therefore a node in the dynamic call tree collapsed
    by path — identified by its parent context plus the callee function.

    Contexts get dense integer ids so tools can use array-indexed state. The
    root context (id 0) represents the process before [main] is entered. *)

type t

(** Dense context id; [root] is 0. *)
type id = int

val root : id

val create : unit -> t

(** [enter t parent fn] returns the context for calling function [fn] from
    context [parent], interning a new node on first sight. *)
val enter : t -> id -> Symbol.id -> id

(** [fn t ctx] is the function executing in [ctx].

    @raise Invalid_argument for [root] or an unknown id. *)
val fn : t -> id -> Symbol.id

(** [parent t ctx] is the calling context, or [None] for [root]. *)
val parent : t -> id -> id option

(** [depth t ctx] is the call depth ([root] has depth 0, [main] depth 1). *)
val depth : t -> id -> int

(** Number of interned contexts, including [root]. *)
val count : t -> int

(** [iter t f] applies [f id] to every context in id order, [root]
    included. *)
val iter : t -> (id -> unit) -> unit

(** [children t ctx] lists the contexts whose parent is [ctx], in creation
    order. *)
val children : t -> id -> id list
