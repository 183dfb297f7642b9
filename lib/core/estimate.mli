(** Estimation of quality metrics from SLIF annotations (paper, Section 3).

    All estimators work purely from the preprocessed annotations and the
    current partition — no re-compilation or re-synthesis — which is the
    paper's central claim.  A stateful estimator memoizes execution times
    and invalidates on partition version changes; {!create_incremental}
    additionally invalidates only the transitive accessors of moved nodes.

    Deviations from the paper's equations are documented in DESIGN.md §5:
    message channels contribute transfer time but not the receiver's
    execution time (the receiver runs concurrently), and recursion (an AG
    call cycle) raises {!Recursive_specification} unless an unrolling
    depth is supplied. *)

exception Recursive_specification of string
(** Raised when execution-time estimation meets a call cycle and no
    [recursion_depth] was given; carries the cycling node's name. *)

type mode = Avg | Min | Max
(** Which access-frequency weight drives the estimate (Section 2.4.1's
    average / minimum / maximum accesses). *)

type t

val create :
  ?mode:mode ->
  ?concurrency:bool ->
  ?recursion_depth:int ->
  Graph.t ->
  Partition.t ->
  t
(** [concurrency] (default false) makes same-tag channels of one behavior
    cost the maximum instead of the sum of their communication times —
    the fork/join extension of Section 2.4.1.  [recursion_depth] unrolls
    call cycles that many times instead of failing. *)

val graph : t -> Graph.t
val partition : t -> Partition.t

val exectime_us : t -> int -> float
(** Equation 1: ict on the node's component plus communication time over
    all outgoing channels.  For variable destinations the accessed
    object's "execution time" is its storage access time; external ports
    contribute transfer time only.  Raises [Invalid_argument] when the
    partition is partial, {!Recursive_specification} on call cycles.

    The channel costs are summed as a left fold in ascending channel id
    order, and each channel's cost is cached per out-row slot, so a
    re-timed node re-prices only its stale channels. *)

val transfer_time_us : t -> Types.channel -> float
(** Bus data-transfer time for one access: [ceil(bits / bitwidth)]
    transfers at [ts] (same component) or [td] (different components). *)

val chan_bitrate_mbps : t -> Types.channel -> float
(** Equation 2: bits per access x accesses per execution / execution time
    of the source.  (bits/us = Mbit/s.) *)

val src_bitrate_mbps : t -> int -> int -> float
(** [src_bitrate_mbps t bus src]: equation 3's term for one source node,
    [W / exectime src], where [W] is the left fold of freq x bits over
    [src]'s channels on [bus] in ascending channel id order.  [0.0] when
    [W] is [0.0] (its execution time is then not queried) or the
    execution time is not positive.  [W] is cached per source until
    {!invalidate_chan} on one of its channels or a partition change the
    estimator was not told about. *)

val bus_bitrate_mbps : t -> int -> float
(** Equation 3: the bus's channel bitrates summed, factored by source —
    {!src_bitrate_mbps} over every node id.

    The sum is pairwise over node ids, in the fixed tree shape of
    {!Slif_util.Sumtree}; sources without a channel on the bus contribute
    [0.0], which is exact for non-negative rates.  Pairwise summation
    errs by O(log n) ulps where a left fold errs by O(n).  It is also the
    shape the move engine maintains per bus, one leaf per source, so the
    engine's bitrates equal this value to the bit. *)

val bus_slowdowns : ?iterations:int -> t -> float array
(** Per-bus contention factors (>= 1): when the aggregate demand on a bus
    exceeds its declared capacity, its transfers slow by the excess ratio,
    which stretches execution times and in turn lowers demand; the factors
    are iterated to a fixpoint (default 8 rounds).  Buses without a
    capacity keep factor 1. *)

val exectime_contended_us : ?iterations:int -> t -> int -> float
(** Equation 1 with each channel's transfer time scaled by its bus's
    contention factor — the capacity-aware execution time.  Channel
    accesses are treated as sequential here (concurrency tags are a
    property of the uncontended estimate). *)

val size : t -> Partition.comp -> float
(** Equations 4-5: sum of member size weights on the component's
    technology (bytes for standard processors, gates for custom ones,
    words for memories). *)

val io_pins : t -> Partition.comp -> int
(** Equation 6: total bitwidth of buses carrying at least one channel that
    crosses the component's boundary. *)

val cut_chans : t -> Partition.comp -> Types.channel list
(** The channels crossing the component boundary (CutChans). *)

val crosses : t -> int -> Types.channel -> bool
(** [crosses t k c]: exactly one endpoint of [c] lies on the component
    with index [k] ({!Partition.comp_index}) — the CutChans rule. *)

(* --- Cache control ----------------------------------------------------- *)

val invalidate_all : t -> unit

val note_node_moved : t -> int -> int list
(** Incremental invalidation after a node moved: drop cached execution
    times of the moved node's transitive accessors only (ablation A1),
    and the cached costs of the moved node's own channels
    ({!invalidate_nodes} on that set, then {!invalidate_out_row}).
    Returns the set ({!Graph.transitive_callers}), which the move engine
    journals to re-stale on rollback.  This and {!note_chan_moved} are
    the one statement of each move's invalidation rule. *)

val note_chan_moved : t -> int -> int list
(** Incremental invalidation after a channel moved to another bus: only
    the channel's source node and its transitive accessors see a changed
    transfer time, so only their memo entries and the channel's cached
    cost are dropped ({!invalidate_nodes} on that set, then
    {!invalidate_chan}) — the fine-grained replacement for
    {!invalidate_all} on channel moves.  Returns the set, like
    {!note_node_moved}.  Raises [Invalid_argument] when the channel id
    is out of range. *)

val invalidate_nodes : t -> int list -> unit
(** Drop the memo entries of exactly the given nodes, and the cached
    costs of the channels into them, and mark the estimator as synced
    with the partition's current version.  The engine's rollback calls
    it with the journaled sets. *)

val invalidate_out_row : t -> int -> unit
(** Drop the cached costs of the node's outgoing channels — what a move
    of the node adds to {!invalidate_nodes}, since each channel's
    transfer time reads its source's component. *)

val invalidate_chan : t -> int -> unit
(** Drop the cached cost of one channel and its source's eq. 3 weights —
    what a move of the channel to another bus adds to
    {!invalidate_nodes}. *)

val rebind : t -> Partition.t -> unit
(** Re-point the estimator at another partition of the same SLIF and
    drop the whole memo (an O(1) generation bump — no arrays are
    reallocated or cleared).  This is what lets a per-domain engine
    replica evaluate a fresh candidate without rebuilding its estimator;
    the caller is responsible for the partition really belonging to the
    same specification. *)

val stats_queries : t -> int
val stats_cache_hits : t -> int
