let events = [| "Ir"; "Dr"; "Dw"; "I1mr"; "D1mr"; "D1mw"; "ILmr"; "DLmr"; "DLmw"; "Bc"; "Bcm" |]

type costs = int array array

let row (c : Cost.t) =
  Cost.[| c.ir; c.dr; c.dw; c.i1mr; c.d1mr; c.d1mw; c.ilmr; c.dlmr; c.dlmw; c.bc; c.bcm |]

let cost (t : costs) ctx : Cost.t =
  match t.(ctx) with
  | [| ir; dr; dw; i1mr; d1mr; d1mw; ilmr; dlmr; dlmw; bc; bcm |] ->
    { ir; int_ops = 0; fp_ops = 0; dr; dw; d1mr; d1mw; dlmr; dlmw; i1mr; ilmr; bc; bcm; calls = 0 }
  | _ -> invalid_arg "Output.cost: a row is not in the columns of events"

(* Context-qualified function name: callgrind distinguishes contexts with
   "name'ctx<N>" suffixes; we do the same for non-first contexts of a
   function. *)
let fn_names names =
  let seen = Hashtbl.create 64 in
  Array.init (Array.length names.Dbi.Names.parent) (fun ctx ->
      let base = Dbi.Names.name names ctx in
      let k = match Hashtbl.find_opt seen base with Some k -> k + 1 | None -> 0 in
      Hashtbl.replace seen base k;
      if k = 0 then base else Printf.sprintf "%s'ctx%d" base k)

let write names ~calls t ppf =
  let name = fn_names names in
  (* a context's parent is older than it: children and inclusive rows
     accumulate from the youngest context up *)
  let kids = Array.make (Array.length t) [] and incl = Array.map Array.copy t in
  for ctx = Array.length t - 1 downto 1 do
    let parent = names.Dbi.Names.parent.(ctx) in
    kids.(parent) <- ctx :: kids.(parent);
    Array.iteri (fun i v -> incl.(parent).(i) <- incl.(parent).(i) + v) incl.(ctx)
  done;
  let pp_cost_line line row =
    Format.fprintf ppf "%d" line;
    Array.iter (fun v -> Format.fprintf ppf " %d" v) row;
    Format.fprintf ppf "@."
  in
  Format.fprintf ppf "# callgrind format@.";
  Format.fprintf ppf "version: 1@.";
  Format.fprintf ppf "creator: sigil-ocaml@.";
  Format.fprintf ppf "positions: line@.";
  Format.fprintf ppf "events: %s@." (String.concat " " (Array.to_list events));
  Format.fprintf ppf "@.";
  let rec visit ctx =
    Format.fprintf ppf "fl=<guest>@.";
    Format.fprintf ppf "fn=%s@." name.(ctx);
    pp_cost_line (ctx + 1) t.(ctx);
    List.iter
      (fun child ->
        Format.fprintf ppf "cfl=<guest>@.";
        Format.fprintf ppf "cfn=%s@." name.(child);
        Format.fprintf ppf "calls=%d %d@." (max 1 (calls child)) (child + 1);
        pp_cost_line (ctx + 1) incl.(child))
      kids.(ctx);
    Format.fprintf ppf "@.";
    List.iter visit kids.(ctx)
  in
  visit Dbi.Context.root

let save names ~calls t path =
  Dbi.Atomic_file.write path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      write names ~calls t ppf;
      Format.pp_print_flush ppf ())
