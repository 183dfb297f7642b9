(** Random-restart partitioning: the baseline search.

    Draws uniformly random proper partitions (nodes onto feasible
    components, channels onto buses) and keeps the cheapest — the simplest
    consumer of SLIF's fast estimation, and the baseline the heuristics
    are compared against.

    Restart [k] draws from the private stream
    [Slif_util.Prng.derive ~root:seed k] (no state is shared between
    restarts), and ties select the lowest restart index
    ({!Search.best}), so the result is a pure function of
    [(seed, restarts)], and any slicing of the restart range folds to
    the same answer. *)

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

val run : ?seed:int -> restarts:int -> Search.problem -> Search.solution
(** [run ~restarts problem] evaluates [restarts] independent random
    partitions ([seed] defaults to 1) on the calling domain and returns
    the cheapest, each restart on a fresh engine: one {!run_range} over
    [0 .. restarts - 1].  Raises [Invalid_argument] when
    [restarts <= 0]. *)
