(** Crash-safe file output.

    Every artifact the tools write (profiles, raw guest recordings, text
    dumps of event traces, Callgrind and DOT outputs, stats JSON, bench
    results) goes through {!write}, so a run that dies midway never leaves
    a torn file under the destination name. The binary event trace keeps
    the same [.tmp]-then-rename discipline in [Tracefile.Writer]. *)

(** [write path f] opens [path ^ ".tmp"], passes the channel to [f], and
    once [f] returns closes it and renames it over [path], returning [f]'s
    result. If [f] or the close raises, the channel is closed, the [.tmp]
    removed and the exception re-raised: an existing [path] keeps its
    bytes and no [.tmp] is left behind. *)
val write : string -> (out_channel -> 'a) -> 'a
