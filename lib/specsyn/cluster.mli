(** Closeness-based hierarchical clustering.

    This is the n-squared algorithm the paper's Results section sizes
    against each format's node count: compute a closeness value for every
    pair of functional objects, repeatedly merge the closest pair, and
    stop at the requested number of clusters.  Closeness here combines
    communication affinity (bits x access frequency on channels between
    the pair, the dominant term), a bonus for sharing a common accessor,
    and a penalty on oversized pairings that would overflow components.

    The result seeds a partition: clusters are assigned whole to
    components, largest cluster first onto the component with the most
    remaining headroom. *)

type params = {
  w_comm : float;        (* weight of direct communication *)
  w_shared : float;      (* weight of a shared accessor *)
  balance_limit : float; (* soft cap on a cluster's share of total size, in (0,1] *)
}

val closeness : ?params:params -> Slif.Graph.t -> int -> int -> float
(** [closeness graph a b] for two node ids; symmetric, non-negative. *)

val clusters : ?params:params -> Slif.Graph.t -> k:int -> int list list
(** [clusters graph ~k] merges until [k] clusters remain (or no positive-
    closeness merge is possible).  Raises [Invalid_argument] when
    [k < 1]. *)

val run : ?params:params -> ?replica:Engine.t -> k:int -> Search.problem -> Search.solution
(** Cluster, then assign clusters to components (behaviors force their
    cluster onto processors), and score the resulting partition. *)
