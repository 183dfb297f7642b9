(** Deterministic pseudo-random number generator (SplitMix64).

    The partitioning heuristics (simulated annealing, random restarts) must
    be reproducible across runs and platforms, so they use this explicit
    generator instead of the ambient [Random] state.

    {2 Per-task state}

    There is deliberately no module-level generator state: every stream
    lives in an explicit [t], owned by exactly one task.  Parallel sweeps
    ({!Pool.map} over task indices) give task [i] the stream
    [derive ~root i], so the draws a task sees are a pure function of
    [(root, i)] — independent of
    how many domains run the sweep, of scheduling order, and of every
    other task.

    {2 Seed-derivation scheme}

    [derive ~root i] hashes the root and the task index through two
    applications of the SplitMix64 finalizer [mix64]:

    {[ state_i = mix64 (mix64 root lxor ((i + 1) * 0x9E3779B97F4A7C15)) ]}

    Hashing (rather than offsetting the root state by [i] gammas) keeps
    the streams of neighboring indices unrelated: with a plain offset,
    stream [i+1] would be stream [i] advanced by one draw. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in [0, bound).
    Raises [Invalid_argument] when [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] draws a uniform float in [0, bound). *)

val bool : t -> bool
(** [bool t] draws a uniform boolean. *)

val derive : root:int -> int -> t
(** [derive ~root index] is the private generator of task [index] under
    root seed [root] (see the seed-derivation scheme above).  It consults
    no shared state: any task can derive its own stream from the pair
    alone.  Raises [Invalid_argument] when [index]
    is negative. *)
