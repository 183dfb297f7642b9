(** Design-space exploration: allocations x partitioning algorithms.

    For each candidate allocation, runs the selected partitioning
    algorithms and records cost, partitions scored and wall-clock time —
    the interactive exploration workload SpecSyn supports and that
    experiment R4 measures (partitions per second). *)

type algo =
  | Random of int                  (* restarts *)
  | Greedy
  | Group_migration
  | Annealing of Annealing.params
  | Clustering of int              (* number of clusters *)

val algo_name : algo -> string

val solve : ?replica:Engine.t -> algo -> Search.problem -> Search.solution
(** [solve algo problem] runs one algorithm on the calling domain — the
    one dispatch from {!algo} to a partitioner, shared by {!run}'s work
    items and the single-query front ends.  [replica] is the calling
    domain's engine ({!Engine.start}), bitwise the same scoring as a
    fresh build; [Random n] ignores it and scores each restart on a
    fresh engine ({!Random_part.run}). *)

type entry = {
  alloc : Alloc.t;
  algo : algo;
  solution : Search.solution;
  elapsed_s : float;
  partitions_per_s : float;
}

val run :
  ?jobs:int ->
  ?chunk:int ->
  ?constraints:Cost.constraints ->
  ?weights:Cost.weights ->
  ?algos:algo list ->
  ?allocs:Alloc.t list ->
  Slif.Types.t ->
  entry list
(** [run slif] explores the full stock catalog with all algorithms by
    default; the SLIF must already be annotated.  Results are sorted by
    cost (cheapest first), stably over (alloc, algo) submission order.

    [jobs] (default 1) runs the work on a {!Slif_util.Pool} of that many
    domains — the one code path that spreads search work over domains.
    The schedulable unit is an (alloc x algo) combination, run by
    {!solve}, except [Random n], whose restarts are sliced into
    contiguous {!Random_part.run_range} chunks of [chunk] (default: the
    {!Slif_util.Pool.default_chunk} heuristic over [jobs]) so they
    load-balance instead of arriving as one monolithic task.  Raises
    [Invalid_argument] when [chunk < 1].

    Each domain lazily builds one private context per allocation — the
    applied SLIF, graph, problem and an engine replica — and every work
    item re-engages the replica through {!Engine.start}, whose
    rescoring is bitwise {!Engine.create}'s.  No mutable state crosses
    domains (share-nothing); results merge in submission order and slice
    winners fold with {!Search.best} (earliest strict minimum, summed
    [evaluated]), so the entry list — order,
    costs, evaluation counts — is identical for every [jobs] and every
    [chunk]; only [elapsed_s]/[partitions_per_s] reflect the actual
    schedule.  For sliced entries [elapsed_s] sums the slices' task
    times (CPU time, not the sweep's wall clock). *)
