(** Crash-safe file output.

    Every artifact the tools write (profiles, text event files, Callgrind
    and DOT outputs, stats JSON) goes through {!write}, so a run that dies
    midway never leaves a torn file under the destination name. *)

(** [write path f] opens [path ^ ".tmp"], passes the channel to [f], and
    once [f] returns closes it and renames it over [path], returning [f]'s
    result. If [f] or the close raises, the channel is closed, the [.tmp]
    removed and the exception re-raised: an existing [path] keeps its
    bytes and no [.tmp] is left behind. *)
val write : string -> (out_channel -> 'a) -> 'a
