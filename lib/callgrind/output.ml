let events =
  [ "Ir"; "Dr"; "Dw"; "I1mr"; "D1mr"; "D1mw"; "ILmr"; "DLmr"; "DLmw"; "Bc"; "Bcm" ]

let cost_fields (c : Cost.t) =
  [ c.Cost.ir; c.Cost.dr; c.Cost.dw; c.Cost.i1mr; c.Cost.d1mr; c.Cost.d1mw; c.Cost.ilmr;
    c.Cost.dlmr; c.Cost.dlmw; c.Cost.bc; c.Cost.bcm ]

let pp_cost_line ppf line cost =
  Format.fprintf ppf "%d" line;
  List.iter (fun v -> Format.fprintf ppf " %d" v) (cost_fields cost);
  Format.fprintf ppf "@."

(* Context-qualified function name: callgrind distinguishes contexts with
   "name'ctx<N>" suffixes; we do the same for non-first contexts of a
   function. *)
let fn_names machine =
  let contexts = Dbi.Machine.contexts machine in
  let table = Dbi.Names.make ~symbols:(Dbi.Machine.symbols machine) ~contexts in
  let seen = Hashtbl.create 64 in
  let names = Hashtbl.create 64 in
  Dbi.Context.iter contexts (fun ctx ->
      let base = Dbi.Names.name table ctx in
      let k = match Hashtbl.find_opt seen base with Some k -> k + 1 | None -> 0 in
      Hashtbl.replace seen base k;
      Hashtbl.replace names ctx (if k = 0 then base else Printf.sprintf "%s'ctx%d" base k));
  names

let write tool ppf =
  let machine = Tool.machine tool in
  let contexts = Dbi.Machine.contexts machine in
  let names = fn_names machine in
  let name ctx = Hashtbl.find names ctx in
  Format.fprintf ppf "# callgrind format@.";
  Format.fprintf ppf "version: 1@.";
  Format.fprintf ppf "creator: sigil-ocaml@.";
  Format.fprintf ppf "positions: line@.";
  Format.fprintf ppf "events: %s@." (String.concat " " events);
  Format.fprintf ppf "@.";
  let rec visit ctx =
    let self = Tool.cost tool ctx in
    Format.fprintf ppf "fl=<guest>@.";
    Format.fprintf ppf "fn=%s@." (name ctx);
    pp_cost_line ppf (ctx + 1) self;
    List.iter
      (fun child ->
        let incl = Tool.inclusive_cost tool child in
        let calls = (Tool.cost tool child).Cost.calls in
        Format.fprintf ppf "cfl=<guest>@.";
        Format.fprintf ppf "cfn=%s@." (name child);
        Format.fprintf ppf "calls=%d %d@." (max 1 calls) (child + 1);
        pp_cost_line ppf (ctx + 1) incl)
      (Dbi.Context.children contexts ctx);
    Format.fprintf ppf "@.";
    List.iter visit (Dbi.Context.children contexts ctx)
  in
  visit Dbi.Context.root

let save tool path =
  Dbi.Atomic_file.write path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      write tool ppf;
      Format.pp_print_flush ppf ())
