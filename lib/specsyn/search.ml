type problem = {
  graph : Slif.Graph.t;
  constraints : Cost.constraints;
  weights : Cost.weights;
}

let problem ?(constraints = Cost.no_constraints) ?(weights = Cost.default_weights) graph =
  { graph; constraints; weights }

type solution = { part : Slif.Partition.t; cost : float; evaluated : int }

(* The earlier solution wins ties, so folding in index order selects the
   same winner for every slicing of the index space; [evaluated] sums. *)
let better a b =
  let evaluated = a.evaluated + b.evaluated in
  if b.cost < a.cost then { b with evaluated } else { a with evaluated }

let best = function
  | [] -> invalid_arg "Search.best: no solutions"
  | first :: rest -> List.fold_left better first rest

let best_range ~start ~len f =
  let acc = ref (f start) in
  for k = start + 1 to start + len - 1 do
    acc := better !acc (f k)
  done;
  !acc

let restarts ?pool ?chunk n run_range =
  let jobs = match pool with Some p -> Slif_util.Pool.jobs p | None -> 1 in
  let chunk =
    match chunk with Some c -> c | None -> Slif_util.Pool.default_chunk ~jobs n
  in
  let pieces = Slif_util.Pool.chunks ~chunk n in
  best
    (match pool with
    | Some pool -> Slif_util.Pool.map pool run_range pieces
    | None -> List.map run_range pieces)

let all_comps (s : Slif.Types.t) =
  Array.to_list (Array.mapi (fun i _ -> Slif.Partition.Cproc i) s.procs)
  @ Array.to_list (Array.mapi (fun i _ -> Slif.Partition.Cmem i) s.mems)

let comps_for_node (s : Slif.Types.t) (node : Slif.Types.node) =
  match node.n_kind with
  | Slif.Types.Behavior _ ->
      Array.to_list (Array.mapi (fun i _ -> Slif.Partition.Cproc i) s.procs)
  | Slif.Types.Variable _ -> all_comps s

let seed_partition (s : Slif.Types.t) =
  if Array.length s.procs = 0 then invalid_arg "Search.seed_partition: no processor";
  if Array.length s.buses = 0 then invalid_arg "Search.seed_partition: no bus";
  let part = Slif.Partition.create s in
  Array.iteri
    (fun i _ -> Slif.Partition.assign_node part ~node:i (Slif.Partition.Cproc 0))
    s.nodes;
  Slif.Partition.assign_all_chans part ~bus:0;
  part

let evaluate problem est =
  Slif_obs.Counter.incr "search.partitions_scored";
  Cost.total ~weights:problem.weights ~constraints:problem.constraints est

let estimator graph part = Slif.Estimate.create ~recursion_depth:4 graph part
