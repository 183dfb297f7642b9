(** Transactional move engine with delta cost evaluation.

    Every partitioning algorithm explores the design space by perturbing a
    partition one object at a time, and the paper's claim is that SLIF
    annotations make each perturbation cheap to re-score.  {!Cost.evaluate},
    however, re-sweeps every processor, memory, bus and deadline per score.
    The engine restores the advertised asymptotics: it maintains the cost
    terms of equations 1-6 as incremental aggregates —

    - per-component size sums (eqs. 4-5),
    - per-component x per-bus counts of boundary-crossing channels, from
      which I/O pins follow (eq. 6),
    - per-bus bitrates (eqs. 2-3), as one pairwise-sum tree per bus
      ({!Slif_util.Sumtree}) whose leaf [v] holds source node [v]'s
      factored term {!Slif.Estimate.src_bitrate_mbps} — the bits [v]
      sends on the bus per execution over its execution time, [0.0] when
      it sends none there,
    - per-deadline execution-time slack (eq. 1, via the memoizing
      {!Slif.Estimate}) —

    so scoring a move recomputes only the violations of the components,
    buses and deadlines the move actually perturbs.  A node move touches
    its source and destination components; a channel move touches the two
    buses and invalidates only the channel's source node and its
    transitive accessors (replacing the old [invalidate_all]).  A node
    of the dirty slice whose execution time changed rewrites one leaf per
    bus and its O(log n) ancestors, however many channels it sources, and
    a bus's bitrate is its tree's root, so no step of a move scans every
    channel or a wide caller's whole fan-out.

    Summation order is part of the contract: {!Slif.Estimate.bus_bitrate_mbps}
    sums over the same fixed tree shape, and every other term is summed
    in {!Cost.evaluate}'s order, so the engine's costs are bitwise the
    oracle's, not merely close.

    The API is transactional: {!propose} applies a move and returns the
    would-be total cost, then exactly one of {!commit} or {!rollback}
    resolves it.  Rollback replays an undo journal, restoring the exact
    prior partition (mapping and version) and aggregate state — every
    touched cell is written back to its previous bit pattern (tree
    leaves are journaled and their ancestors recomputed), so no
    floating-point drift accumulates over long searches.  The
    estimator's caches are not journaled: rollback re-stales what
    propose staled.  {!Cost.evaluate}
    on a fresh estimator remains the oracle the engine is property-tested
    against, bit for bit (test/test_engine.ml). *)

type move =
  | Move_node of { node : int; to_ : Slif.Partition.comp }
  | Move_chan of { chan : int; to_bus : int }
  | Move_group of move list
      (** Compound move, applied in order and committed or rolled back
          atomically.  Submoves may touch the same objects repeatedly. *)

type t

val create :
  ?weights:Cost.weights ->
  ?constraints:Cost.constraints ->
  Slif.Graph.t ->
  Slif.Partition.t ->
  t
(** Build the aggregates for the partition's current (total) state.  The
    engine owns the partition from here on: mutating it behind the
    engine's back leaves the aggregates stale.  Raises [Invalid_argument]
    when the partition is partial or a node lacks a weight for its
    component's technology (as {!Cost.evaluate} would). *)

val of_problem : Search.problem -> Slif.Partition.t -> t
(** {!create} with the problem's weights and constraints. *)

val acquire : t -> Slif.Partition.t -> unit
(** [acquire t part] re-points the engine (and its estimator) at [part]
    — a fresh total partition of the same SLIF — zeroes the aggregates
    and rescores them with exactly {!create}'s arithmetic, so costs
    reported afterwards are bitwise what a fresh engine over [part]
    would report.  The immutable precompute (incident channel lists,
    candidate arrays, resolved deadlines, the estimator's memo arrays)
    is reused, and {!moves_scored} restarts at zero.  This is the
    per-domain replica primitive of the share-nothing sweeps: one engine
    per pool worker, re-acquired per work item, no allocation shared
    across domains.  Weights and constraints keep their {!create}-time
    values.  Raises [Invalid_argument] while a transaction is pending
    (and, like {!create}, when [part] is partial or a weight is
    missing). *)

val start : ?replica:t -> Search.problem -> Slif.Partition.t -> t
(** [start ?replica problem part] is [replica] after {!acquire} onto
    [part], or a fresh {!of_problem} engine when there is no replica —
    the one way every search obtains its engine.  Costs are bitwise the
    same either way; the replica must belong to the calling domain and
    to [problem]'s graph, weights and constraints. *)

val graph : t -> Slif.Graph.t

val partition : t -> Slif.Partition.t
(** The live partition — reflects the pending move while a transaction is
    open.  Copy it (e.g. to snapshot a best-so-far) rather than mutating. *)

val estimate : t -> Slif.Estimate.t
(** The engine's estimator, kept incrementally coherent; algorithms may
    query it for metrics beyond the cost terms (memoized values are
    shared with the engine's own scoring). *)

val cost : t -> float
(** Total weighted violation of the current state (pending move
    included), equal to {!Cost.total} on a fresh estimator. *)

val breakdown : t -> Cost.breakdown
(** Per-term violations of the current state, equal to {!Cost.evaluate}. *)

val comp_size : t -> Slif.Partition.comp -> float
(** The maintained size aggregate of one component (eqs. 4-5) — what
    {!Slif.Estimate.size} would recompute by sweeping the component's
    members.  O(1). *)

val bus_bitrate : t -> int -> float
(** The maintained bitrate of one bus (eq. 3): the root of its
    pairwise-sum tree, bitwise {!Slif.Estimate.bus_bitrate_mbps} on a
    fresh estimator.  O(1). *)

(* --- Transactions ------------------------------------------------------- *)

val propose : t -> move -> float
(** Apply the move, delta-update the aggregates, and return the new total
    cost.  The transaction stays pending until {!commit} or {!rollback}.
    Raises [Invalid_argument] when a transaction is already pending, or
    when the move is infeasible (e.g. a behavior onto a memory, an
    out-of-range id) — in that case the engine state is unchanged.
    Moves to an object's current location are legal no-ops. *)

val commit : t -> unit
(** Keep the pending move.  Raises [Invalid_argument] when none is. *)

val rollback : t -> unit
(** Undo the pending move: partition mapping, partition version,
    estimator cache validity and every aggregate return to their exact
    pre-{!propose} state.  Raises [Invalid_argument] when no transaction
    is pending. *)


val moves_scored : t -> int
(** Number of {!propose} calls so far — the engine's partitions-scored
    counter, reported by the algorithms as {!Search.solution.evaluated}. *)

(* --- Move generation ----------------------------------------------------- *)

val candidates : t -> int -> Slif.Partition.comp array
(** Feasible components for a node (behaviors: processors; variables:
    processors then memories), as a precomputed array shared across calls
    — O(1) uniform choice, unlike the list-walking the algorithms used to
    do.  Do not mutate. *)

val random_move : t -> Slif_util.Prng.t -> move option
(** One uniform single-object move: with probability 1/4 (when the
    allocation has several buses) a channel re-bussing, otherwise a node
    move to a feasible component.  [None] when the draw lands on the
    object's current location — callers just skip that step, keeping
    acceptance statistics comparable across algorithms. *)

val moves_to : t -> Slif.Partition.t -> move list
(** The single-object moves transforming the engine's current partition
    into [target] (same SLIF), suitable for one atomic {!Move_group} —
    how group migration rewinds to the best prefix of a pass. *)
