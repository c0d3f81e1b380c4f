(** Persistent aggregate profiles.

    The paper closes by promising to "release the profile data for many
    commonly used benchmarks... researchers can use the data without
    running Sigil". This module is that artifact: a finished run's symbol
    table, calling-context tree, per-context aggregates and communication
    edges serialize to a self-contained text file, and load back into a
    {!snapshot} that can be inspected without a machine or a re-run.

    Format (line-oriented):
    {v
 sigil-profile 1
 S <fn-id> <name>                         symbols
 C <ctx> <parent> <fn-id> <calls>         context-tree nodes (preorder)
 T <ctx> <in-u> <in-n> <loc-u> <loc-n> <written> <iops> <fops>
 X <src> <dst> <bytes> <unique>           communication edges v}  *)

type ctx_stats = {
  ctx : Dbi.Context.id;
  parent : Dbi.Context.id; (** -1 for the root *)
  fn : int; (** -1 for the root *)
  calls : int;
  input_unique : int;
  input_nonunique : int;
  local_unique : int;
  local_nonunique : int;
  written : int;
  int_ops : int;
  fp_ops : int;
}

type edge = {
  src : Dbi.Context.id;
  dst : Dbi.Context.id;
  bytes : int;
  unique_bytes : int;
}

type snapshot

(** [save tool path] writes the finished run's profile crash-safely,
    through [Dbi.Atomic_file.write]: [path] never holds a torn profile. *)
val save : Tool.t -> string -> unit

(** [to_string tool] is the exact file [save] would write. The rendering is
    canonical (sorted symbols and edges, preorder contexts), so two runs
    are bit-identical profiles iff their [to_string] outputs are equal —
    the equality the parallel-vs-sequential determinism test checks. *)
val to_string : Tool.t -> string

(** [snapshot_of_tool tool] captures without touching the filesystem. *)
val snapshot_of_tool : Tool.t -> snapshot

(** [load path] parses a saved profile.

    @raise Failure on malformed input or unsupported version. *)
val load : string -> snapshot

(** {2 Queries} *)

(** Function name by id ([fn = -1] renders ["<root>"]). *)
val fn_name : snapshot -> int -> string

(** [path snap ctx] renders the full call path, as {!Dbi.Context.path}. *)
val path : snapshot -> Dbi.Context.id -> string

(** Contexts in preorder (root first). *)
val contexts : snapshot -> ctx_stats list

val stats : snapshot -> Dbi.Context.id -> ctx_stats
val edges : snapshot -> edge list

(** [children snap ctx] in file order. *)
val children : snapshot -> Dbi.Context.id -> Dbi.Context.id list

(** Program-wide [(unique, total)] read bytes, as {!Profile.totals}. *)
val totals : snapshot -> int * int
