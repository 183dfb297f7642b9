(** Closeness-based hierarchical clustering.

    This is the n-squared algorithm the paper's Results section sizes
    against each format's node count: compute a closeness value for every
    pair of functional objects, repeatedly merge the closest pair, and
    stop at the requested number of clusters.  Closeness here combines
    communication affinity (bits x access frequency on channels between
    the pair, weight 1.0, the dominant term) and a bonus of 0.2 for
    sharing a common accessor; a merge whose cluster would exceed 0.6 of
    the total size is skipped until only one more merge is needed.

    The result seeds a partition: clusters are assigned whole to
    components, largest cluster first onto the component with the most
    remaining headroom. *)

val closeness : Slif.Graph.t -> int -> int -> float
(** [closeness graph a b] for two node ids; symmetric, non-negative. *)

val clusters : Slif.Graph.t -> k:int -> int list list
(** [clusters graph ~k] merges until [k] clusters remain (or no positive-
    closeness merge is possible).  Raises [Invalid_argument] when
    [k < 1]. *)

val run : ?replica:Engine.t -> k:int -> Search.problem -> Search.solution
(** Cluster, then assign clusters to components (behaviors force their
    cluster onto processors), and score the resulting partition. *)
