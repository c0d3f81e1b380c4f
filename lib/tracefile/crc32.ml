(* one table per domain, built at its first checksum: a lazy table shared
   by all domains raises Lazy.Undefined when two force it at once *)
let table =
  Domain.DLS.new_key (fun () ->
      Array.init 256 (fun n ->
          let c = ref n in
          for _ = 0 to 7 do
            c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
          done;
          !c))

let bytes b ~pos ~len =
  let table = Domain.DLS.get table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF
