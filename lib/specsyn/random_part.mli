(** Random-restart partitioning: the baseline search.

    Draws uniformly random proper partitions (nodes onto feasible
    components, channels onto buses) and keeps the cheapest — the simplest
    consumer of SLIF's fast estimation, and the baseline the heuristics
    are compared against.

    Restart [k] draws from the private stream
    [Slif_util.Prng.derive ~root:seed k] (no state is shared between
    restarts), and ties select the lowest restart index
    ({!Search.better}), so the result is a pure function of
    [(seed, restarts)] — identical with or without a pool, at any [jobs]
    and any [chunk]. *)

val run_range :
  ?replica:Engine.t ->
  ?seed:int ->
  start:int ->
  len:int ->
  Search.problem ->
  Search.solution
(** [run_range ~start ~len problem] evaluates restarts
    [start .. start + len - 1] on the calling domain and returns the
    range's {!Search.best}: the earliest strict minimum, with
    [evaluated = len].  This is the work-unit body {!Explore.run}
    schedules directly when it slices one [Random n] algorithm across
    pool tasks; folding range winners with {!Search.best} reproduces
    {!run}'s answer exactly.  [replica] is the calling domain's engine
    ({!Engine.start}): each restart then costs one {!Engine.acquire}
    rescoring — bitwise {!Engine.create}'s — instead of a full engine
    build.  Raises [Invalid_argument] on an empty or negative range. *)

val run :
  ?pool:Slif_util.Pool.t ->
  ?seed:int ->
  ?chunk:int ->
  restarts:int ->
  Search.problem ->
  Search.solution
(** [run ~restarts problem] evaluates [restarts] independent random
    partitions ([seed] defaults to 1) and returns the cheapest, each
    restart on a fresh engine.

    {!Search.restarts} drives the sweep: contiguous index chunks of size
    [chunk] (default: {!Slif_util.Pool.default_chunk} over the pool's
    jobs), each a {!run_range}, so a pooled sweep enqueues a few coarse
    tasks instead of one tiny task per restart.  The earliest strict
    minimum wins within and across chunks, so the answer is
    byte-identical for every [chunk] and [jobs]. *)
