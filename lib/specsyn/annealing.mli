(** Simulated-annealing partitioner.

    Random single-object moves (a node to a feasible component, or a
    channel to another bus when the allocation has several) accepted by
    the Metropolis criterion under a geometric cooling schedule.  This is
    the "algorithms that explore thousands of possible designs" workload
    the paper's estimation speed enables; the run reports how many
    partitions were scored.  The chain draws from
    [Slif_util.Prng.create params.seed], so the result is a pure function
    of [params]. *)

type params = {
  initial_temp : float;
  cooling : float;        (* geometric factor per step, e.g. 0.995 *)
  steps : int;
  seed : int;
}

val default_params : params

val run : ?params:params -> ?replica:Engine.t -> Search.problem -> Search.solution
(** [run problem] anneals one chain from the all-software seed
    partition.  [replica] starts it from one {!Engine.acquire}
    rescoring ({!Engine.start}) instead of a full engine build, with
    bitwise-identical costs. *)
