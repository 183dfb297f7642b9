(** Nested monotonic-clock spans.

    [with_ "estimate.exectime" f] times [f ()] on the monotonic clock
    and writes one completed span into the calling domain's {!Flight}
    ring — the one span store — even when [f] raises.  The span carries
    a process-unique id and its parent's id (the innermost span open on
    the calling domain, or whatever {!Flight.with_causality} installed
    across a domain hop), so exports rebuild the call structure from
    parent ids.  With the registry armed, the span also feeds the
    [span.<name>] histogram with its duration in microseconds.

    Fully disabled (registry off *and* flight off): the only cost is two
    atomic loads before calling [f]. *)

val with_ : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the function under a named span.  While the registry is armed
    (as every [--trace] run arms it), [args] are stored with the span
    and become the exported trace event's [args] object (rendered as
    strings); unarmed they are dropped, so the always-on ring keeps
    none of the caller's data alive. *)
