(** Per-domain wall-time attribution for the parallel stack.

    BENCH A8 shows exploration getting {e slower} with domains; spans and
    counters alone cannot say why — they time work, not waiting.  This
    module folds each domain's wall time into named categories so a
    scaling report can answer "where did the cores go":

    - [Task_run] — executing pool task bodies, less the lock waits and
      engine acquires charged inside them (and, in {!report}, less a
      share of GC time);
    - [Queue_wait] — pool-internal queue machinery: waiting on and
      holding the pool's queue lock between tasks;
    - [Lock_wait] — blocked acquiring an instrumented {!Lockprof} lock;
    - [Gc] — runtime/GC pauses ({!Gcprof} timing, process-wide);
    - [Copy] — [Specsyn.Engine.acquire] per-task replica rescoring cost;
    - [Idle] — parked on the pool's condition variable with no work.

    Every charge is {e self time}, made by a probe in this library: a
    categorised {!Span} charges its duration less what was charged on
    the same domain while it was open, and {!Lockprof} charges its waits
    through {!add}, which adds them to that running total.  So a lock
    wait inside a task is charged once, to lock-wait; one domain's
    categories sum to at most its wall, and [coverage] says how much of
    the wall the profiler could name.  GC is the one carve left for
    {!report}: [runtime_events] cannot attribute a pause to a span, so
    process-wide GC time is spread over the domains' task-run time.

    The cells follow {!Registry}'s {!Slots} lifecycle, so the hot paths
    never lock and a retired cell's time stays in {!report}'s totals.
    The switch is independent of the span registry; disabled, a probe
    site pays one atomic load.  Read at quiescent points (between
    sweeps), as every registry exporter does. *)

type category = Task_run | Queue_wait | Lock_wait | Gc | Copy | Idle

val category_name : category -> string
(** ["task-run"], ["queue-wait"], ["lock-wait"], ["gc"], ["copy"],
    ["idle"]. *)

val on : unit -> bool
(** True while profiling is enabled.  Every producer checks this first
    and is a no-op (one atomic load) when it is false. *)

val enable : unit -> unit

val disable : unit -> unit

val add : category -> float -> unit
(** [add cat us] charges [us] microseconds of the calling domain's time
    to [cat] and counts them in the domain's running total, so a
    categorised {!Span} open around the charge leaves them out of its
    own.  No-op while disabled.  The probes in this library are its
    callers; code outside it times an interval with {!Span}. *)

val add_wall : float -> unit
(** Charge measured wall time (microseconds) to the calling domain: the
    denominator the categories are compared against.  Pool workers
    record their loop lifetime; the submitting domain records each map
    call's duration.  No-op while disabled. *)

type per_domain = {
  dom : int;  (** [Domain.self] of the recording domain *)
  wall_us : float;
  net : (category * float) list;
      (** as charged, except task-run with this domain's share of the
          process-wide GC time carved out (clamped at zero) *)
  other_us : float;  (** wall minus the net categories, clamped at 0 *)
}

type report = {
  domains : per_domain list;
      (** ascending domain id; live domains and the 16 most recently
          exited, older exits count in the totals only *)
  total_wall_us : float;
  totals : (category * float) list;  (** net, summed across domains *)
  total_other_us : float;
  coverage : float;
      (** named time / wall time, in [0, 1]; 1.0 when wall is 0 *)
}

val report : ?gc_us:float -> unit -> report
(** Fold the cells into the report.  [gc_us] (default: the cells'
    recorded [Gc] time) substitutes a process-wide GC time measured
    elsewhere ({!Gcprof.gc_time_us}); it is carved out of the domains'
    task-run time proportionally to their share of it. *)

val reset : unit -> unit
(** Zero every domain's cell.  Call between profiled sweeps. *)
