(** The daemon's telemetry as one typed snapshot, and a pure renderer
    for each surface that reports it.

    The acceptor samples its state once per control op into a {!t} —
    one GC sample, one pass over the flight rings, one read of the
    resident set and the per-op latency table — and every surface is a projection of
    that record: the [stats] and [health] replies, the [metrics]
    Prometheus exposition, and the SIGUSR1 dump.  A figure therefore
    reads the same on every surface it appears on, and a new metric is
    added once, here.  PROTOCOL.md's telemetry table is the contract
    for which surface renders which field under what name. *)

type op_stat = {
  op : string;
  lifetime : Slif_obs.Histogram.quantiles;
      (** log-bucket quantiles since startup; [q_count] is the op's request count *)
  sum_us : float;  (** lifetime latency sum *)
  recent : Slif_obs.Histogram.quantiles option;  (** exact, over the sliding window *)
  batch_items : int;  (** items of this op executed inside [batch] requests *)
}

type t = {
  uptime_s : float;
  requests : int;  (** request lines served (batch items excluded) *)
  errors : int;
  last_error : string option;
  inflight : int;  (** open client connections *)
  workers : int;
  queue_depth : int;
  jobs_inflight : int;
  per_worker : int array;  (** completions drained, by worker *)
  outq_overflows : int;
  dropped_responses : int;
  rejected_connections : int;
  queue_wait : Slif_obs.Histogram.quantiles;  (** [q_count = 0] before the first job *)
  queue_wait_sum_us : float;
  select_idle_s : float;
  loop_iterations : int;
  accept_errors : int;  (** [accept] calls that failed, out of descriptors or otherwise *)
  ops : op_stat list;  (** ops served at least once, ascending name *)
  lru : Lru.stats;  (** the resident set, read under its lock *)
  gc : Slif_obs.Gcprof.counts;
  gc_per_domain : (int * Slif_obs.Gcprof.counts) list;
  heap_words : int;
  pool : Slif_util.Pool.global_stats;
  rings : Slif_obs.Flight.ring_stat list;
      (** live domains plus the 16 most recently exited *)
  flight_records : int;  (** {!Slif_obs.Flight.records_total}: older exits included *)
  flight_dropped : int;  (** {!Slif_obs.Flight.dropped_total} *)
  retained : int;  (** traces ever retained *)
  retained_live : int;
  dump_bytes : int;
  counters : (string * int) list;  (** registry counters *)
  histograms : (string * Slif_obs.Histogram.summary * Slif_obs.Histogram.quantiles) list;
}

val stats : t -> (string * Slif_obs.Json.t) list
(** The [stats] reply's fields. *)

val health : t -> (string * Slif_obs.Json.t) list
(** The [health] reply's fields: a cheap subset of [stats], same values. *)

val flight : t -> Slif_obs.Json.t
(** The flight-recorder block of [stats] (also part of the [dump] reply). *)

val prometheus : t -> string
(** The [metrics] reply's exposition text. *)

val dump : t -> string
(** The SIGUSR1 dump: the [stats] reply line between
    [--- slif serve telemetry ---] and [--- end telemetry ---]. *)
