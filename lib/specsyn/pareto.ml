type point = {
  part : Slif.Partition.t;
  worst_exectime_us : float;
  hw_gates : float;
  sw_bytes : float;
  weight_time : float;
}

let measure graph part =
  let s = Slif.Graph.slif graph in
  let est = Search.estimator graph part in
  let worst = ref 0.0 in
  Array.iter
    (fun (n : Slif.Types.node) ->
      if Slif.Types.is_process n then
        worst := Float.max !worst (Slif.Estimate.exectime_us est n.n_id))
    s.Slif.Types.nodes;
  let hw = ref 0.0 and sw = ref 0.0 in
  Array.iteri
    (fun i (p : Slif.Types.processor) ->
      let size = Slif.Estimate.size est (Slif.Partition.Cproc i) in
      match p.p_kind with
      | Slif.Types.Custom -> hw := !hw +. size
      | Slif.Types.Standard -> sw := !sw +. size)
    s.Slif.Types.procs;
  (!worst, !hw, !sw)

let score graph part ~weight_time =
  let worst_exectime_us, hw_gates, sw_bytes = measure graph part in
  { part = Slif.Partition.copy part; worst_exectime_us; hw_gates; sw_bytes; weight_time }

let dominated a b =
  b.worst_exectime_us <= a.worst_exectime_us
  && b.hw_gates <= a.hw_gates
  && (b.worst_exectime_us < a.worst_exectime_us || b.hw_gates < a.hw_gates)

let front points =
  points
  |> List.filter (fun p -> not (List.exists (fun q -> q != p && dominated p q) points))
  |> List.sort (fun a b -> compare a.worst_exectime_us b.worst_exectime_us)

(* Scalarized objective: normalized worst-case time against normalized
   custom-hardware area, with a penalty for violated constraints.  All
   three terms come from the engine's incrementally maintained state —
   the old code built two fresh estimators per step. *)
let objective (s : Slif.Types.t) ~weight_time eng =
  let est = Engine.estimate eng in
  let worst = ref 0.0 in
  Array.iter
    (fun (n : Slif.Types.node) ->
      if Slif.Types.is_process n then
        worst := Float.max !worst (Slif.Estimate.exectime_us est n.n_id))
    s.Slif.Types.nodes;
  let hw = ref 0.0 in
  Array.iteri
    (fun i (p : Slif.Types.processor) ->
      if p.p_kind = Slif.Types.Custom then
        hw := !hw +. Engine.comp_size eng (Slif.Partition.Cproc i))
    s.Slif.Types.procs;
  (weight_time *. !worst /. 1000.0) +. (!hw /. 100_000.0) +. (10.0 *. Engine.cost eng)

let default_weights_time = [ 0.1; 0.3; 1.0; 2.0; 4.0; 8.0; 16.0 ]

let sweep ?(jobs = 1) ?(constraints = Cost.no_constraints) ?(steps_per_point = 400)
    ?(weights_time = default_weights_time) ?chunk graph =
  let s = Slif.Graph.slif graph in
  let n_nodes = Array.length s.Slif.Types.nodes in
  let problem = Search.problem ~constraints graph in
  (* Each weight point is an independent computation: its generator seed
     is a function of the point's index alone, and the partition it
     anneals is point-private — the sweep produces the same candidates
     at any [jobs] and any chunking.  The engine is the executing
     domain's replica, re-acquired per point ([Engine.acquire] rescoring
     is bitwise [Engine.create]'s, so sharing it changes nothing). *)
  let anneal_point replica i weight_time =
    let rng = Slif_util.Prng.create (1000 + i) in
    let part = Search.seed_partition s in
    let eng = Engine.start ~replica problem part in
    let cost = ref (objective s ~weight_time eng) in
    let temp = ref 0.5 in
    for _ = 1 to steps_per_point do
      let node = Slif_util.Prng.int rng n_nodes in
      let from = Slif.Partition.comp_of_exn part node in
      let choices = Engine.candidates eng node in
      let to_ = choices.(Slif_util.Prng.int rng (Array.length choices)) in
      if to_ <> from then begin
        ignore (Engine.propose eng (Engine.Move_node { node; to_ }));
        let c = objective s ~weight_time eng in
        let accept =
          c <= !cost
          || (!temp > 1e-9 && Slif_util.Prng.float rng 1.0 < exp ((!cost -. c) /. !temp))
        in
        if accept then begin
          Engine.commit eng;
          cost := c
        end
        else Engine.rollback eng
      end;
      temp := !temp *. 0.99
    done;
    score graph part ~weight_time
  in
  let wt = Array.of_list weights_time in
  let n = Array.length wt in
  (* Every [jobs], 1 included, goes through the pool (which runs inline
     at one job): one engine replica per domain, created on the domain
     that uses it, and contiguous chunks of points so each task
     amortizes its replica acquisition over several points. *)
  let candidates =
    Slif_util.Pool.with_pool ~jobs (fun pool ->
        let replica =
          Slif_util.Pool.local (fun () ->
              Engine.of_problem problem (Search.seed_partition s))
        in
        let chunk =
          match chunk with Some c -> c | None -> Slif_util.Pool.default_chunk ~jobs n
        in
        Slif_util.Pool.map pool
          (fun (start, len) ->
            let replica = Slif_util.Pool.get replica in
            List.init len (fun d -> anneal_point replica (start + d) wt.(start + d)))
          (Slif_util.Pool.chunks ~chunk n)
        |> List.concat)
  in
  (* The serial accumulator consed points in reverse; keep feeding [front]
     the same order so tie-breaks in its stable sort never move. *)
  front (List.rev candidates)
