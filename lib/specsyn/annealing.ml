type params = { initial_temp : float; cooling : float; steps : int; seed : int }

let default_params = { initial_temp = 1.0; cooling = 0.995; steps = 2000; seed = 7 }

(* One annealing chain from the all-software seed partition, drawing
   from [Prng.create params.seed].  [replica] substitutes a re-acquired
   engine for the fresh build — bitwise the same scoring, none of the
   construction cost. *)
let run ?(params = default_params) ?replica (problem : Search.problem) =
  Slif_obs.Span.with_ "search.annealing" ~args:[ ("steps", string_of_int params.steps) ]
  @@ fun () ->
  let rng = Slif_util.Prng.create params.seed in
  let part = Search.seed_partition (Slif.Graph.slif problem.Search.graph) in
  let eng = Engine.start ?replica problem part in
  let cost = ref (Engine.cost eng) in
  let best_part = ref (Slif.Partition.copy part) in
  let best_cost = ref !cost in
  let temp = ref params.initial_temp in
  for _ = 1 to params.steps do
    (match Engine.random_move eng rng with
    | None -> ()
    | Some move ->
        let c = Engine.propose eng move in
        Slif_obs.Counter.incr "search.moves_proposed";
        let accept =
          c <= !cost
          || (!temp > 1e-9
             && Slif_util.Prng.float rng 1.0 < exp ((!cost -. c) /. !temp))
        in
        if accept then begin
          Engine.commit eng;
          Slif_obs.Counter.incr "search.moves_accepted";
          cost := c;
          if c < !best_cost then begin
            best_cost := c;
            best_part := Slif.Partition.copy (Engine.partition eng)
          end
        end
        else begin
          Slif_obs.Counter.incr "search.moves_rejected";
          Engine.rollback eng
        end);
    temp := !temp *. params.cooling
  done;
  { Search.part = !best_part; cost = !best_cost; evaluated = Engine.moves_scored eng + 1 }
