(** The one probe per timed interval.

    A probe reads the monotonic clock once at each end and feeds that
    one duration to every armed sink: a completed span in the calling
    domain's {!Flight} ring (on by default; its parent is the innermost
    span open on the domain, or what {!Flight.with_causality}
    installed), a duration histogram when the {!Registry} is armed
    ([span.<name>] unless the site names its own), and, for a site with
    an {!Attribution} category, that category when attribution is
    armed.  The category gets the interval's {e self} time: its
    duration less what was charged on the same domain while it was open
    (nested categorised spans, {!Lockprof} waits), read from the running
    total in {!Flight.context} — never from parent ids, which can name
    another domain's span.

    With every sink off, a probe costs the switches' atomic loads. *)

val with_ :
  ?args:(string * string) list ->
  ?category:Attribution.category ->
  string ->
  (unit -> 'a) ->
  'a
(** Run the function under a named span, even when it raises.  [args]
    become the exported trace event's [args] while the registry is
    armed; unarmed they are dropped, so the always-on ring keeps none of
    the caller's data alive. *)

val timed : hist:string -> category:Attribution.category -> (unit -> 'a) -> 'a
(** A scoped interval that is not a span: no ring record, and spans
    opened inside keep their parent.  The pool's task-run probe, whose
    tasks' spans parent under the submitter's. *)

val record :
  ?trace:string -> ?id:int -> ?hist:string -> parent:int -> t0_ns:int -> string -> int
(** Close an interval the caller stamped at [t0_ns] ({!Clock.now_ns}),
    such as a queue wait that ends on another domain: one clock read,
    a span under [parent] (id [id], or a fresh one) when the flight
    recorder is on, [hist] when given and the registry is armed.
    Returns the duration in nanoseconds. *)
