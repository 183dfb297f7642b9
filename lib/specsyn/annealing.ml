type params = { initial_temp : float; cooling : float; steps : int; seed : int }

let default_params = { initial_temp = 1.0; cooling = 0.995; steps = 2000; seed = 7 }

(* One annealing chain over its own partition, engine and generator.
   [replica] substitutes a re-acquired engine for the fresh build —
   bitwise the same scoring, none of the construction cost. *)
let run_chain ?replica ~params ~initial ~rng (problem : Search.problem) =
  let s = Slif.Graph.slif problem.Search.graph in
  let part =
    match initial with Some p -> Slif.Partition.copy p | None -> Search.seed_partition s
  in
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

let run ?pool ?(restarts = 1) ?(params = default_params) ?initial ?chunk ?replica
    (problem : Search.problem) =
  if restarts <= 0 then invalid_arg "Annealing.run: restarts must be positive";
  Slif_obs.Span.with_ "search.annealing"
    ~args:
      [ ("steps", string_of_int params.steps); ("restarts", string_of_int restarts) ]
  @@ fun () ->
  if restarts = 1 then
    (* The single-chain path keeps the historical stream: the chain draws
       from [Prng.create params.seed] directly. *)
    run_chain ?replica ~params ~initial ~rng:(Slif_util.Prng.create params.seed) problem
  else
    (* Chain [k] anneals from its own derived stream over its own cloned
       partition and fresh engine, so the restart sweep is a pure
       function of (params.seed, restarts) whatever the chunking. *)
    Search.restarts ?pool ?chunk restarts (fun (start, len) ->
        Search.best_range ~start ~len (fun k ->
            run_chain ~params ~initial
              ~rng:(Slif_util.Prng.derive ~root:params.seed k)
              problem))
