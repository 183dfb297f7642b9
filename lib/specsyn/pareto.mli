(** Pareto-front extraction over the performance/area trade-off.

    Interactive system design is about trade-offs: faster designs buy
    speed with gates.  This module sweeps the time-vs-size weighting of
    the cost function, collects the designs the searches produce, scores
    each design by (worst process execution time, total custom-hardware
    area), and keeps the non-dominated set — the curve a designer actually
    chooses from. *)

type point = {
  part : Slif.Partition.t;
  worst_exectime_us : float;   (* max over processes *)
  hw_gates : float;            (* total size over custom processors *)
  sw_bytes : float;            (* total size over standard processors *)
  weight_time : float;         (* the sweep position that produced it *)
}

val score : Slif.Graph.t -> Slif.Partition.t -> weight_time:float -> point
(** Evaluate one partition.  Raises like {!Slif.Estimate} on improper
    partitions. *)

val front : point list -> point list
(** Non-dominated subset, sorted by execution time (fastest first): a
    point is dropped when another is at least as good on both axes and
    strictly better on one. *)

val sweep :
  ?jobs:int ->
  ?constraints:Cost.constraints ->
  ?steps_per_point:int ->
  ?weights_time:float list ->
  ?chunk:int ->
  Slif.Graph.t ->
  point list
(** [sweep graph] runs simulated annealing once per time-weight in
    [weights_time] (default seven points between 0.1 and 16) and returns
    the Pareto front of all solutions found.

    [jobs] (default 1) anneals the weight points on a {!Slif_util.Pool}
    of that many domains — there is no separate serial path: at one job
    the pool runs inline — grouped into contiguous chunks of [chunk]
    points (default {!Slif_util.Pool.default_chunk}) so each task
    amortizes per-task setup over several points.  Each point's
    generator is seeded by its index and anneals a point-private
    partition on the executing domain's engine replica ({!Engine.start},
    with {!Engine.create}-bitwise rescoring), so the front is identical
    for every [jobs] and every [chunk]. *)
