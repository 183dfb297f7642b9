(** Shared infrastructure for the partitioning algorithms. *)

type problem = {
  graph : Slif.Graph.t;
  constraints : Cost.constraints;
  weights : Cost.weights;
}

val problem :
  ?constraints:Cost.constraints -> ?weights:Cost.weights -> Slif.Graph.t -> problem

type solution = {
  part : Slif.Partition.t;
  cost : float;
  evaluated : int;   (* number of partitions scored *)
}

val best : solution list -> solution
(** The one winner fold of every restart sweep, from the left: the
    cheaper solution — the first on a tie, so an earlier restart beats a
    later one — with [evaluated] summed over all.  Folding in index order
    picks the same winner, and the same total, for every slicing of the
    index space.  Raises [Invalid_argument] on []. *)

val best_range : start:int -> len:int -> (int -> solution) -> solution
(** [best_range ~start ~len f] folds the same winner rule over
    [f start .. f (start + len - 1)] as each restart finishes; [len >= 1]. *)

val comps_for_node : Slif.Types.t -> Slif.Types.node -> Slif.Partition.comp list
(** Feasible components: behaviors go to processors only; variables to
    processors or memories (paper, Section 2.2). *)

val seed_partition : Slif.Types.t -> Slif.Partition.t
(** Everything on processor 0, every channel on bus 0 — the initial
    all-software partition.  Raises [Invalid_argument] when the SLIF has
    no processor or no bus. *)

val estimator : Slif.Graph.t -> Slif.Partition.t -> Slif.Estimate.t
(** Estimator configured for search (average mode, recursion unrolled a
    few levels so a recursive spec does not abort the search). *)
