(** PARSEC-style input scales.

    Workload sizes multiply by {!factor}: simmedium is 4x simsmall and
    simlarge 16x, roughly the growth of the PARSEC input packs. *)

type t =
  | Simsmall
  | Simmedium
  | Simlarge

val factor : t -> int
val name : t -> string

(** [of_string s] accepts ["simsmall" | "simmedium" | "simlarge"]. *)
val of_string : string -> (t, string) result

(** [apply t base] is [base * factor t]. *)
val apply : t -> int -> int
