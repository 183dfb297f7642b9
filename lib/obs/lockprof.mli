(** Contention-profiled mutexes.

    A {!t} wraps a [Mutex.t] under a stable name and, while profiling is
    enabled, records two log-bucket histograms per lock — microseconds
    spent {e waiting} to acquire it and microseconds spent {e holding}
    it — plus acquisition and contended-acquisition counts.  The wait
    time is also charged to the lock's {!Attribution} category through
    {!Attribution.add}, the path every probe charges through, so a
    scaling report can show lock contention per domain and a task that
    waited is not also charged for the wait.

    Cost model: while disabled, {!lock} is one atomic load, a branch and
    [Mutex.lock] — indistinguishable from a bare mutex.  While enabled,
    the uncontended path is a [Mutex.try_lock] plus two clock reads; the
    stat cells are mutated only by the lock's holder (wait is recorded
    just after acquiring, hold just before releasing), so the telemetry
    adds no synchronization of its own.

    {!stats} and {!all} read the histograms without taking the lock —
    they are meant for quiescent points or monitoring scrapes where a
    torn read of one bucket is acceptable, like every other exporter in
    this library. *)

type t

val create : ?category:Attribution.category -> string -> t
(** [create name] registers a new profiled lock.  [category] (default
    {!Attribution.Lock_wait}) is where acquisition waits are charged;
    the pool's queue lock passes {!Attribution.Queue_wait}. *)

val release : t -> unit
(** Unregister [t]; its counts fold into its name's row of {!all}.
    Idempotent.  Call when the lock's owner is done with it (a pool at
    shutdown), so a process that makes one per job keeps one row per
    name, not one record per lock ever made. *)

val wait : t -> Condition.t -> unit
(** [wait t cond] is [Condition.wait] on [t]'s mutex with the profiling
    kept consistent: the current hold segment is closed before parking
    and a fresh one opened on wake, so time blocked on the condition
    never counts as holding the lock.  The parked time is charged to
    {!Attribution.Idle} — a pool worker with an empty queue is idle,
    not contending. *)

val lock : t -> unit

val unlock : t -> unit

val set_enabled : bool -> unit
(** Master switch for every profiled lock (independent of the span
    registry's switch). *)

type stat = {
  s_name : string;
  acquisitions : int;  (** successful [lock] calls while enabled *)
  contended : int;  (** acquisitions that had to wait *)
  wait_us : Histogram.summary;
  wait_quantiles : Histogram.quantiles;
  hold_us : Histogram.summary;
  hold_quantiles : Histogram.quantiles;
}

val all : unit -> stat list
(** One row per lock name, sorted: the live locks of that name and the
    released ones merged. *)

val reset : unit -> unit
(** Zero every lock's counters and histograms and drop the released
    locks' rows.  Only meaningful at a quiescent point (no lock held or
    contended). *)
