type suite =
  | Parsec
  | Spec

type t = {
  name : string;
  suite : suite;
  description : string;
  run : Dbi.Machine.t -> Scale.t -> unit;
}
