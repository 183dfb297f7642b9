(** Simulated-annealing partitioner.

    Random single-object moves (a node to a feasible component, or a
    channel to another bus when the allocation has several) accepted by
    the Metropolis criterion under a geometric cooling schedule.  This is
    the "algorithms that explore thousands of possible designs" workload
    the paper's estimation speed enables; the run reports how many
    partitions were scored.

    With [restarts > 1] the run anneals that many independent chains and
    keeps the best (ties: lowest chain index, {!Search.better}).  Chain
    [k] draws from the private stream
    [Slif_util.Prng.derive ~root:params.seed k] over its own cloned
    partition and fresh engine, so the sweep result is a pure function of
    [(params, restarts)] — identical with or without a pool, at any
    [jobs] and any [chunk].  A single-restart run keeps the historical
    stream [Prng.create params.seed]. *)

type params = {
  initial_temp : float;
  cooling : float;        (* geometric factor per step, e.g. 0.995 *)
  steps : int;
  seed : int;
}

val default_params : params

val run :
  ?pool:Slif_util.Pool.t ->
  ?restarts:int ->
  ?params:params ->
  ?initial:Slif.Partition.t ->
  ?chunk:int ->
  ?replica:Engine.t ->
  Search.problem ->
  Search.solution
(** [run problem] anneals [restarts] chains (default 1) from [initial]
    (default: the all-software seed partition).  [evaluated] sums over
    chains.  With [?pool], chains run in parallel with identical
    results.

    Multi-restart runs go through {!Search.restarts}: chains are
    processed as contiguous index chunks of size [chunk] (default
    {!Slif_util.Pool.default_chunk}), each chain on a fresh engine, and
    chunk winners fold exactly like the chains themselves, so results
    are byte-identical for every [chunk] and [jobs].  [replica] serves
    the single-chain run only: it starts from one {!Engine.acquire}
    rescoring ({!Engine.start}) instead of a full engine build, with
    bitwise-identical costs.  Raises [Invalid_argument] when
    [restarts <= 0]. *)
