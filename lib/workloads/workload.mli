(** Workload descriptor and registry entry type. *)

type suite =
  | Parsec
  | Spec

type t = {
  name : string;
  suite : suite;
  description : string;
  run : Dbi.Machine.t -> Scale.t -> unit;
      (** Deterministic: equal (machine history, scale) gives equal event
          streams. *)
}
