type t =
  | Simsmall
  | Simmedium
  | Simlarge

let factor = function
  | Simsmall -> 1
  | Simmedium -> 4
  | Simlarge -> 16

let name = function
  | Simsmall -> "simsmall"
  | Simmedium -> "simmedium"
  | Simlarge -> "simlarge"

let of_string = function
  | "simsmall" -> Ok Simsmall
  | "simmedium" -> Ok Simmedium
  | "simlarge" -> Ok Simlarge
  | s -> Error (Printf.sprintf "unknown scale %S (expected simsmall|simmedium|simlarge)" s)

let apply t base = base * factor t
