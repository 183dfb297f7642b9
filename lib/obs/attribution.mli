(** Per-domain wall-time attribution for the parallel stack.

    BENCH A8 shows exploration getting {e slower} with domains; spans and
    counters alone cannot say why — they time work, not waiting.  This
    module folds each domain's wall time into named categories so a
    scaling report can answer "where did the cores go":

    - [Task_run] — executing pool task bodies (gross, including any GC
      pauses, lock waits and engine acquires that happened inside);
    - [Queue_wait] — pool-internal queue machinery: waiting on and
      holding the pool's queue lock between tasks;
    - [Lock_wait] — blocked acquiring an instrumented {!Lockprof} lock;
    - [Gc] — runtime/GC pauses ({!Gcprof} timing, process-wide);
    - [Copy] — [Specsyn.Engine.acquire] per-task replica rescoring cost;
    - [Idle] — parked on the pool's condition variable with no work.

    Producers ({!Slif_util.Pool}, {!Lockprof}, the engine) call {!add}
    from the domain the time was spent on; the cells follow the same
    {!Slots} lifecycle as {!Registry}'s, so the hot paths never lock
    and a retired cell's time moves into a total that {!report}'s
    totals include.  The accounting is gated by its own switch,
    independent of the span registry: a disabled profiler costs one atomic load per
    probe site.  {!report} resolves the double counting: the sub-costs
    measured inside tasks (lock wait, GC, copy) are carved out of the
    gross task-run time, so the categories of one domain sum to at most
    its measured wall time and the [coverage] ratio says how much of the
    wall the profiler could name.  Readers are meant to run at quiescent
    points (between sweeps), as all registry exporters are. *)

type category = Task_run | Queue_wait | Lock_wait | Gc | Copy | Idle

val categories : category list
(** All categories, in report order. *)

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
    to [cat].  No-op while disabled. *)

val add_wall : float -> unit
(** Charge measured wall time (microseconds) to the calling domain: the
    denominator the categories are compared against.  Pool workers
    record their loop lifetime; the submitting domain records each map
    call's duration.  No-op while disabled. *)

type per_domain = {
  dom : int;  (** [Domain.self] of the recording domain *)
  wall_us : float;
  raw : (category * float) list;  (** as recorded, task-run gross *)
  net : (category * float) list;
      (** task-run with the lock/GC/copy sub-costs carved out (clamped
          at zero); other categories unchanged *)
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
(** Fold the cells into the deduplicated report.  [gc_us] (default: the
    cells' recorded [Gc] time) substitutes a process-wide GC time
    measured elsewhere ({!Gcprof.gc_time_us}); it is charged against the
    domains' gross task time proportionally to their share of it. *)

val reset : unit -> unit
(** Zero every domain's cell.  Call between profiled sweeps. *)
