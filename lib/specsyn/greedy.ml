(* Size proxy used for the visiting order: the node's weight on the first
   technology that carries one. *)
let size_proxy (node : Slif.Types.node) =
  match node.n_size with [] -> 0.0 | (_, v) :: _ -> v

let run ?replica (problem : Search.problem) =
  Slif_obs.Span.with_ "search.greedy" @@ fun () ->
  let s = Slif.Graph.slif problem.graph in
  let part = Search.seed_partition s in
  let eng = Engine.start ?replica problem part in
  let order =
    Array.to_list s.nodes
    |> List.sort (fun a b -> compare (size_proxy b) (size_proxy a))
  in
  List.iter
    (fun (node : Slif.Types.node) ->
      let id = node.n_id in
      let current = Slif.Partition.comp_of_exn (Engine.partition eng) id in
      let best = ref (current, Engine.cost eng) in
      Array.iter
        (fun comp ->
          if comp <> fst !best then begin
            let c = Engine.propose eng (Engine.Move_node { node = id; to_ = comp }) in
            Engine.rollback eng;
            if c < snd !best then best := (comp, c)
          end)
        (Engine.candidates eng id);
      if fst !best <> current then begin
        ignore (Engine.propose eng (Engine.Move_node { node = id; to_ = fst !best }));
        Engine.commit eng
      end;
      Slif_obs.Counter.incr "search.moves_committed")
    order;
  { Search.part; cost = Engine.cost eng; evaluated = Engine.moves_scored eng + 1 }
