type algo =
  | Random of int
  | Greedy
  | Group_migration
  | Annealing of Annealing.params
  | Clustering of int

let algo_name = function
  | Random n -> Printf.sprintf "random-%d" n
  | Greedy -> "greedy"
  | Group_migration -> "group-migration"
  | Annealing p -> Printf.sprintf "annealing-%d" p.Annealing.steps
  | Clustering k -> Printf.sprintf "clustering-%d" k

type entry = {
  alloc : Alloc.t;
  algo : algo;
  solution : Search.solution;
  elapsed_s : float;
  partitions_per_s : float;
}

let solve ?replica algo problem =
  match algo with
  | Random restarts -> Random_part.run ~restarts problem
  | Greedy -> Greedy.run ?replica problem
  | Group_migration -> Group_migration.run ?replica problem
  | Annealing params -> Annealing.run ?replica ~params problem
  | Clustering k -> Cluster.run ?replica ~k problem

let default_algos =
  [ Random 50; Greedy; Group_migration; Annealing Annealing.default_params; Clustering 4 ]

(* Everything one allocation's work items need, built at most once per
   (domain, allocation): the applied SLIF, its graph and problem, and
   the domain's private engine replica.  Nothing in here is ever seen by
   another domain — the share-nothing invariant — so the replica's memo
   and aggregate arrays stay hot in exactly one cache hierarchy. *)
type ctx = {
  c_problem : Search.problem;
  c_eng : Engine.t;
}

(* One schedulable unit: a (alloc x algo) pair, or — for multi-restart
   algorithms, whose natural tasks are far too small and too uneven to
   schedule one by one — a contiguous restart slice of one. *)
type work = {
  w_pair : int;                  (* index into the pair array *)
  w_slice : (int * int) option;  (* Random restart range (start, len) *)
}

let run ?(jobs = 1) ?chunk ?constraints ?weights ?(algos = default_algos)
    ?(allocs = Alloc.catalog) slif =
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Explore.run: chunk must be >= 1"
  | _ -> ());
  let chunk_arg = Option.fold ~none:"auto" ~some:string_of_int chunk in
  Slif_obs.Span.with_ "explore.run"
    ~args:[ ("jobs", string_of_int jobs); ("chunk", chunk_arg) ]
  @@ fun () ->
  (* Every (alloc x algo) combination is independent: it gets its own
     graph, problem and engine state, and the algorithms seed their own
     generators — no mutable state crosses work-unit boundaries, so the
     pool can run the sweep on any number of domains.  Pool.map merges
     in submission order, slice winners fold in index order, and the
     cost sort below is stable, hence the report is bit-identical
     regardless of [jobs] and [chunk]. *)
  let alloc_arr = Array.of_list allocs in
  let pairs =
    Array.of_list
      (List.concat
         (List.mapi
            (fun ai _ -> List.map (fun algo -> (ai, algo)) algos)
            allocs))
  in
  let chunk_for n =
    match chunk with Some c -> c | None -> Slif_util.Pool.default_chunk ~jobs n
  in
  let works =
    List.concat
      (List.mapi
         (fun p (_, algo) ->
           match algo with
           | Random n when n > 0 ->
               (* Slice the restarts so they load-balance across domains
                  instead of arriving as one monolithic task. *)
               List.map
                 (fun sl -> { w_pair = p; w_slice = Some sl })
                 (Slif_util.Pool.chunks ~chunk:(chunk_for n) n)
           | _ -> [ { w_pair = p; w_slice = None } ])
         (Array.to_list pairs))
  in
  (* Even [jobs = 1] goes through the pool: its single-domain path runs
     the same thunks inline, so the serial and parallel sweeps share one
     code path and the profiler's task instrumentation covers both. *)
  let results =
    Slif_util.Pool.with_pool ~jobs (fun pool ->
        (* The per-domain context cache, keyed by allocation index.  A
           domain builds an allocation's graph, problem and engine
           replica the first time it meets it and reuses them for every
           later work item of that allocation — replacing today's
           rebuild-per-task (and the engine-clone-per-task design
           before it) with one [Engine.acquire] per candidate. *)
        let ctxs = Slif_util.Pool.local (fun () -> Hashtbl.create 8) in
        let ctx_for ai =
          let tbl = Slif_util.Pool.get ctxs in
          match Hashtbl.find_opt tbl ai with
          | Some c -> c
          | None ->
              let s = Alloc.apply slif alloc_arr.(ai) in
              let graph = Slif.Graph.make s in
              let problem = Search.problem ?constraints ?weights graph in
              let eng = Engine.of_problem problem (Search.seed_partition s) in
              let c = { c_problem = problem; c_eng = eng } in
              Hashtbl.add tbl ai c;
              c
        in
        let solve_work w =
          let ai, algo = pairs.(w.w_pair) in
          let ctx = ctx_for ai in
          let problem = ctx.c_problem and replica = ctx.c_eng in
          Slif_obs.Clock.time @@ fun () ->
          Slif_obs.Span.with_ "explore.entry"
            ~args:[ ("alloc", alloc_arr.(ai).Alloc.alloc_name); ("algo", algo_name algo) ]
          @@ fun () ->
          match w.w_slice with
          | Some (start, len) -> Random_part.run_range ~replica ~seed:1 ~start ~len problem
          | None -> solve ~replica algo problem
        in
        Slif_util.Pool.map pool solve_work works)
  in
  (* Deterministic merge: group the results back onto their pairs in
     submission order (works of one pair are contiguous and slice order
     equals index order) and fold each pair's slice winners with
     [Search.best] — the fold inside every restart range, so a sliced
     [Random n] entry equals the serial sweep, [evaluated = n] included. *)
  let by_pair = Array.make (Array.length pairs) [] in
  List.iter2 (fun w r -> by_pair.(w.w_pair) <- r :: by_pair.(w.w_pair)) works results;
  let entries =
    Array.to_list
      (Array.mapi
         (fun p (ai, algo) ->
           let results = List.rev by_pair.(p) in
           let solution = Search.best (List.map fst results) in
           let elapsed_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 results in
           let partitions_per_s =
             if elapsed_s > 0.0 then float_of_int solution.Search.evaluated /. elapsed_s
             else 0.0
           in
           Slif_obs.Counter.add "explore.partitions_evaluated" solution.Search.evaluated;
           { alloc = alloc_arr.(ai); algo; solution; elapsed_s; partitions_per_s })
         pairs)
  in
  List.sort (fun a b -> compare a.solution.Search.cost b.solution.Search.cost) entries
