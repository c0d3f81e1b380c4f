let write path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    let result = f oc in
    close_out oc;
    result
  with
  | result ->
    Sys.rename tmp path;
    result
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
