let random_partition rng (s : Slif.Types.t) =
  let part = Slif.Partition.create s in
  (* Candidate arrays are built once per partition, so each draw is O(1)
     instead of the List.nth walk this used to do. *)
  let procs = Array.init (Array.length s.procs) (fun i -> Slif.Partition.Cproc i) in
  let all =
    Array.append procs (Array.init (Array.length s.mems) (fun m -> Slif.Partition.Cmem m))
  in
  Array.iteri
    (fun i (node : Slif.Types.node) ->
      let choices =
        match node.n_kind with Slif.Types.Behavior _ -> procs | Slif.Types.Variable _ -> all
      in
      let comp = choices.(Slif_util.Prng.int rng (Array.length choices)) in
      Slif.Partition.assign_node part ~node:i comp)
    s.nodes;
  Array.iteri
    (fun i _ ->
      Slif.Partition.assign_chan part ~chan:i
        ~bus:(Slif_util.Prng.int rng (Array.length s.buses)))
    s.chans;
  part

(* Restart [k] draws from its own derived stream, never from a shared
   generator, so every restart is a pure function of (seed, k) and a
   sweep result is bit-identical whether the pool runs it on one domain
   or eight — and, because [Engine.acquire] rescoring is bitwise
   [Engine.create]'s, whether it scored on a per-domain replica or a
   fresh engine. *)
let eval_one ?replica ~seed (problem : Search.problem) s k =
  let rng = Slif_util.Prng.derive ~root:seed k in
  let part = random_partition rng s in
  { Search.part; cost = Engine.cost (Engine.start ?replica problem part); evaluated = 1 }

let run_range ?replica ?(seed = 1) ~start ~len (problem : Search.problem) =
  if start < 0 || len <= 0 then invalid_arg "Random_part.run_range: bad range";
  Slif_obs.Counter.add "search.restarts" len;
  let s = Slif.Graph.slif problem.Search.graph in
  Search.best_range ~start ~len (eval_one ?replica ~seed problem s)

let run ?(seed = 1) ~restarts (problem : Search.problem) =
  Slif_obs.Span.with_ "search.random"
    ~args:[ ("restarts", string_of_int restarts) ]
  @@ fun () -> run_range ~seed ~start:0 ~len:restarts problem
