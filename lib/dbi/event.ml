type op_kind =
  | Int_op
  | Fp_op

type access =
  | Read
  | Write

type byte_range = int * int

let range_valid (addr, len) = addr >= 0 && len > 0
