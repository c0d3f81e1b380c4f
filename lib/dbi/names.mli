(** A run's function names and calling-context tree, detached from the
    machine: the one table every artifact and report names contexts
    through.

    A trace, a recording and a saved profile are keyed by context ids,
    which mean nothing without the producing run's names and tree. The
    writer stores this table in the container's tables section, the
    reader gives it back, a [Sigil.Profile_io] snapshot holds it, and
    every report and CLI renders names with {!fn_name}, {!name} and
    {!path}. The arrays are the section's dense layout (docs/FORMATS.md
    §6), so reading and writing copy nothing.

    Naming has two rules: the root context (and the root's function,
    [-1]) is ["<root>"], and an id the table lacks renders as
    ["ctx:<id>"] for a context, ["???:<id>"] for a function. *)

type t = {
  symbols : string array;
      (** function names by function id, as the run saw them (["???:<id>"]
          on a stripped run) *)
  stripped : bool;
  parent : int array;  (** calling context by context id; [-1] at the root *)
  fn : int array;  (** function by context id; [-1] at the root *)
}

(** No names and no contexts: what a trace without tables holds. *)
val empty : t

(** [make ~symbols ~contexts] is the table of a live run. *)
val make : symbols:Symbol.t -> contexts:Context.t -> t

(** [fn_name t fn] is function [fn]'s name: ["<root>"] for [-1]. *)
val fn_name : t -> Symbol.id -> string

(** [name t ctx] is the name of the function [ctx] runs: ["<root>"] for
    the root, ["ctx:<id>"] when the table cannot name it. *)
val name : t -> Context.id -> string

(** [path t ctx] is the call path of [ctx], outermost first, e.g.
    ["main/localSearch/pkmedian"]; the root's is ["<root>"]. *)
val path : t -> Context.id -> string
