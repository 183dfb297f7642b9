(* The transactional move engine, property-tested against the Cost.evaluate
   oracle on every bundled specification and on synthetic graphs of every
   small bus-tree shape.  Agreement is bitwise, not within a tolerance. *)

let check_bits label expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h (not bitwise equal)" label expected actual

let annotated_of_spec (spec : Specs.Registry.spec) =
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse spec.Specs.Registry.source) in
  Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem)

(* Deadlines on the first two processes — one tight enough to violate, one
   loose — plus a name that resolves to nothing (the oracle skips it, so
   the engine must too). *)
let constraints_for (s : Slif.Types.t) =
  let processes =
    Array.to_list s.Slif.Types.nodes
    |> List.filter Slif.Types.is_process
    |> List.map (fun (n : Slif.Types.node) -> n.n_name)
  in
  let deadlines =
    match processes with
    | [] -> []
    | [ p ] -> [ (p, 100.0) ]
    | p :: q :: _ -> [ (p, 100.0); (q, 1e7) ]
  in
  { Specsyn.Cost.deadlines_us = ("no_such_process", 1.0) :: deadlines }

let problem_for spec alloc =
  let s = Specsyn.Alloc.apply (annotated_of_spec spec) alloc in
  let graph = Slif.Graph.make s in
  Specsyn.Search.problem ~constraints:(constraints_for s) graph

(* The oracle: a full sweep on a fresh estimator over the live partition. *)
let oracle_with (problem : Specsyn.Search.problem) part =
  let est = Specsyn.Search.estimator problem.Specsyn.Search.graph part in
  ( est,
    Specsyn.Cost.evaluate ~weights:problem.Specsyn.Search.weights
      ~constraints:problem.Specsyn.Search.constraints est )

let oracle problem part = snd (oracle_with problem part)

(* Every cost term and every bus's raw bitrate (the tree root, whether or
   not the bus is over capacity) equal the oracle's to the bit. *)
let check_against_oracle label problem eng =
  let b = Specsyn.Engine.breakdown eng in
  let est, o = oracle_with problem (Specsyn.Engine.partition eng) in
  check_bits (label ^ ": size") o.Specsyn.Cost.size_violation b.Specsyn.Cost.size_violation;
  check_bits (label ^ ": io") o.Specsyn.Cost.io_violation b.Specsyn.Cost.io_violation;
  check_bits (label ^ ": time") o.Specsyn.Cost.time_violation b.Specsyn.Cost.time_violation;
  check_bits (label ^ ": bitrate") o.Specsyn.Cost.bitrate_violation
    b.Specsyn.Cost.bitrate_violation;
  check_bits (label ^ ": total") o.Specsyn.Cost.total b.Specsyn.Cost.total;
  Array.iteri
    (fun i _ ->
      check_bits
        (Printf.sprintf "%s: bus %d bitrate" label i)
        (Slif.Estimate.bus_bitrate_mbps est i)
        (Specsyn.Engine.bus_bitrate eng i))
    (Slif.Graph.slif problem.Specsyn.Search.graph).Slif.Types.buses

let engine_of_problem problem =
  let part =
    Specsyn.Search.seed_partition (Slif.Graph.slif problem.Specsyn.Search.graph)
  in
  (problem, Specsyn.Engine.of_problem problem part)

let engine_for spec alloc = engine_of_problem (problem_for spec alloc)

(* A synthetic graph cut down to its first [n_chans] channels, so only
   the sources of those channels carry bus-tree leaves. *)
let synth_problem n_chans =
  let s =
    Slif_synth.Synth.generate
      (Slif_synth.Synth.default_params ~seed:5 ~nodes:96 Slif_synth.Synth.Mixed)
  in
  if Array.length s.Slif.Types.chans < n_chans then
    Alcotest.failf "synthetic graph has only %d channels" (Array.length s.Slif.Types.chans);
  let s = { s with Slif.Types.chans = Array.sub s.Slif.Types.chans 0 n_chans } in
  Specsyn.Search.problem ~constraints:(constraints_for s) (Slif.Graph.make s)

(* Channel counts: the smallest graphs, and one below, at and above a
   power of two. *)
let synth_chan_counts = [ 1; 2; 3; 5; 31; 32; 33; 63; 64; 65 ]

(* Allocations with capacity pressure (size and pin caps on the paper's
   processor+ASIC architecture) and with several buses and a memory, so
   every cost term and move kind gets exercised. *)
let allocs () =
  [
    Specsyn.Alloc.proc_asic ~cpu_cap:2000.0 ~asic_cap:10_000.0 ~asic_pins:40 ();
    Specsyn.Alloc.proc_asic_mem ();
  ]

let test_create_matches_oracle () =
  List.iter
    (fun spec ->
      List.iter
        (fun alloc ->
          let problem, eng = engine_for spec alloc in
          check_against_oracle
            (spec.Specs.Registry.spec_name ^ "/" ^ alloc.Specsyn.Alloc.alloc_name)
            problem eng)
        (allocs ()))
    Specs.Registry.all

(* The tentpole property: over random move sequences, the incrementally
   maintained cost equals the oracle bitwise after every propose, commit
   and rollback, and rollback restores the exact prior partition. *)
let random_moves_match_oracle label problem eng ~steps =
  let rng = Slif_util.Prng.create 42 in
  for step = 1 to steps do
    match Specsyn.Engine.random_move eng rng with
    | None -> ()
    | Some move ->
        let part_before = Slif.Partition.copy (Specsyn.Engine.partition eng) in
        let version_before = Slif.Partition.version (Specsyn.Engine.partition eng) in
        let cost_before = Specsyn.Engine.cost eng in
        let proposed = Specsyn.Engine.propose eng move in
        let tag = Printf.sprintf "%s step %d" label step in
        check_bits (tag ^ " propose") proposed (Specsyn.Engine.cost eng);
        check_against_oracle (tag ^ " pending") problem eng;
        if Slif_util.Prng.bool rng then begin
          Specsyn.Engine.commit eng;
          check_against_oracle (tag ^ " committed") problem eng
        end
        else begin
          Specsyn.Engine.rollback eng;
          let part = Specsyn.Engine.partition eng in
          Alcotest.(check int)
            (tag ^ " version restored") version_before
            (Slif.Partition.version part);
          Array.iteri
            (fun i _ ->
              Alcotest.(check bool)
                (tag ^ " node mapping restored") true
                (Slif.Partition.comp_of part i
                = Slif.Partition.comp_of part_before i))
            (Slif.Partition.slif part).Slif.Types.nodes;
          Array.iteri
            (fun i _ ->
              Alcotest.(check bool)
                (tag ^ " chan mapping restored") true
                (Slif.Partition.bus_of part i = Slif.Partition.bus_of part_before i))
            (Slif.Partition.slif part).Slif.Types.chans;
          (* The journal wrote every touched cell back. *)
          check_bits (tag ^ " cost restored") cost_before (Specsyn.Engine.cost eng);
          check_against_oracle (tag ^ " rolled back") problem eng
        end
  done

let test_random_moves_match_oracle () =
  List.iter
    (fun spec ->
      List.iter
        (fun alloc ->
          let label = spec.Specs.Registry.spec_name ^ "/" ^ alloc.Specsyn.Alloc.alloc_name in
          let problem, eng = engine_for spec alloc in
          random_moves_match_oracle label problem eng ~steps:40)
        (allocs ()))
    Specs.Registry.all

let test_synth_tree_shapes_match_oracle () =
  List.iter
    (fun n ->
      let problem, eng = engine_of_problem (synth_problem n) in
      let label = Printf.sprintf "synth/%d chans" n in
      check_against_oracle (label ^ " created") problem eng;
      random_moves_match_oracle label problem eng ~steps:60)
    synth_chan_counts

(* Channel moves between buses, including a group that re-busses the same
   channel twice: the source's weight leaves one tree, enters another and
   comes back, and the pending, rolled-back and committed states all
   match the oracle bitwise. *)
let test_rebus_moves_match_oracle () =
  let cases =
    ( "fuzzy/proc_asic_mem",
      engine_for (Specs.Registry.find_exn "fuzzy") (Specsyn.Alloc.proc_asic_mem ()) )
    :: List.map
         (fun n -> (Printf.sprintf "synth/%d chans" n, engine_of_problem (synth_problem n)))
         synth_chan_counts
  in
  List.iter
    (fun (label, (problem, eng)) ->
      let s = Slif.Graph.slif problem.Specsyn.Search.graph in
      let n_buses = Array.length s.Slif.Types.buses in
      if n_buses < 2 then Alcotest.failf "%s: needs two buses" label;
      let last = Array.length s.Slif.Types.chans - 1 in
      let home c = Slif.Partition.bus_of_exn (Specsyn.Engine.partition eng) c in
      let other c = (home c + 1) mod n_buses in
      let try_move tag move ~keep =
        let cost_before = Specsyn.Engine.cost eng in
        let proposed = Specsyn.Engine.propose eng move in
        check_bits (tag ^ " proposed") proposed (Specsyn.Engine.cost eng);
        check_against_oracle (tag ^ " pending") problem eng;
        Specsyn.Engine.rollback eng;
        check_bits (tag ^ " rolled back") cost_before (Specsyn.Engine.cost eng);
        check_against_oracle (tag ^ " rolled back") problem eng;
        if keep then begin
          ignore (Specsyn.Engine.propose eng move);
          Specsyn.Engine.commit eng;
          check_against_oracle (tag ^ " committed") problem eng
        end
      in
      List.iter
        (fun c ->
          let tag = Printf.sprintf "%s chan %d" label c in
          let away = other c and back = home c in
          try_move (tag ^ " move")
            (Specsyn.Engine.Move_chan { chan = c; to_bus = away })
            ~keep:true;
          let back_and_forth =
            Specsyn.Engine.Move_group
              [
                Specsyn.Engine.Move_chan { chan = c; to_bus = back };
                Specsyn.Engine.Move_node { node = 0; to_ = Slif.Partition.Cproc 1 };
                Specsyn.Engine.Move_chan { chan = c; to_bus = away };
                Specsyn.Engine.Move_chan { chan = c; to_bus = back };
              ]
          in
          try_move (tag ^ " twice in a group") back_and_forth ~keep:true)
        (List.sort_uniq compare [ 0; last / 2; last ]))
    cases

let test_group_moves_atomic () =
  let problem, eng = engine_for (Specs.Registry.find_exn "fuzzy") (Specsyn.Alloc.proc_asic_mem ()) in
  let rng = Slif_util.Prng.create 9 in
  let rec draw n acc =
    if n = 0 then acc
    else
      match Specsyn.Engine.random_move eng rng with
      | Some m -> draw (n - 1) (m :: acc)
      | None -> draw n acc
  in
  let moves = draw 6 [] in
  let cost_before = Specsyn.Engine.cost eng in
  ignore (Specsyn.Engine.propose eng (Specsyn.Engine.Move_group moves));
  check_against_oracle "group pending" problem eng;
  Specsyn.Engine.rollback eng;
  check_bits "group rollback" cost_before (Specsyn.Engine.cost eng);
  ignore (Specsyn.Engine.propose eng (Specsyn.Engine.Move_group moves));
  Specsyn.Engine.commit eng;
  check_against_oracle "group committed" problem eng

let test_infeasible_move_leaves_state () =
  let _, eng = engine_for (Specs.Registry.find_exn "fuzzy") (Specsyn.Alloc.proc_asic_mem ()) in
  let s = Slif.Graph.slif (Specsyn.Engine.graph eng) in
  let behavior =
    let found = ref (-1) in
    Array.iteri
      (fun i (n : Slif.Types.node) ->
        if !found < 0 then
          match n.n_kind with Slif.Types.Behavior _ -> found := i | _ -> ())
      s.Slif.Types.nodes;
    !found
  in
  let cost_before = Specsyn.Engine.cost eng in
  let attempt move =
    (match Specsyn.Engine.propose eng move with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "infeasible move accepted");
    (match Specsyn.Engine.rollback eng with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "a refused move left a transaction pending");
    Alcotest.(check bool) "state unchanged" true (Specsyn.Engine.cost eng = cost_before)
  in
  attempt (Specsyn.Engine.Move_node { node = behavior; to_ = Slif.Partition.Cmem 0 });
  attempt (Specsyn.Engine.Move_node { node = -1; to_ = Slif.Partition.Cproc 0 });
  attempt (Specsyn.Engine.Move_chan { chan = 0; to_bus = 99 });
  (* A group failing on its second submove must undo its first. *)
  attempt
    (Specsyn.Engine.Move_group
       [
         Specsyn.Engine.Move_node { node = behavior; to_ = Slif.Partition.Cproc 1 };
         Specsyn.Engine.Move_chan { chan = 0; to_bus = 99 };
       ])

let test_transaction_discipline () =
  let _, eng = engine_for (Specs.Registry.find_exn "fuzzy") (Specsyn.Alloc.proc_asic ()) in
  (match Specsyn.Engine.commit eng with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "commit without transaction accepted");
  (match Specsyn.Engine.rollback eng with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rollback without transaction accepted");
  ignore
    (Specsyn.Engine.propose eng
       (Specsyn.Engine.Move_node { node = 0; to_ = Slif.Partition.Cproc 1 }));
  (match
     Specsyn.Engine.propose eng
       (Specsyn.Engine.Move_node { node = 0; to_ = Slif.Partition.Cproc 0 })
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nested propose accepted");
  Specsyn.Engine.rollback eng

let test_candidates_match_search () =
  let _, eng = engine_for (Specs.Registry.find_exn "fuzzy") (Specsyn.Alloc.proc_asic_mem ()) in
  let s = Slif.Graph.slif (Specsyn.Engine.graph eng) in
  Array.iteri
    (fun i (node : Slif.Types.node) ->
      Alcotest.(check bool)
        "candidate array matches comps_for_node" true
        (Array.to_list (Specsyn.Engine.candidates eng i)
        = Specsyn.Search.comps_for_node s node))
    s.Slif.Types.nodes

let test_moves_to_reaches_target () =
  let problem, eng = engine_for (Specs.Registry.find_exn "fuzzy") (Specsyn.Alloc.proc_asic_mem ()) in
  (* Wander away from the seed... *)
  let rng = Slif_util.Prng.create 123 in
  let target = Slif.Partition.copy (Specsyn.Engine.partition eng) in
  for _ = 1 to 10 do
    match Specsyn.Engine.random_move eng rng with
    | None -> ()
    | Some move ->
        ignore (Specsyn.Engine.propose eng move);
        Specsyn.Engine.commit eng
  done;
  (* ...then return to the snapshot in one atomic group. *)
  (match Specsyn.Engine.moves_to eng target with
  | [] -> ()
  | moves ->
      ignore (Specsyn.Engine.propose eng (Specsyn.Engine.Move_group moves));
      Specsyn.Engine.commit eng);
  let part = Specsyn.Engine.partition eng in
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        "node back at target" true
        (Slif.Partition.comp_of part i = Slif.Partition.comp_of target i))
    (Slif.Partition.slif part).Slif.Types.nodes;
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        "chan back at target" true
        (Slif.Partition.bus_of part i = Slif.Partition.bus_of target i))
    (Slif.Partition.slif part).Slif.Types.chans;
  check_against_oracle "after moves_to" problem eng

let test_engine_algorithms_agree_with_oracle () =
  (* End-to-end: every algorithm's reported cost is the oracle's cost of
     the partition it returns. *)
  let spec = Specs.Registry.find_exn "fuzzy" in
  let problem = problem_for spec (Specsyn.Alloc.proc_asic_mem ()) in
  let check_sol name (sol : Specsyn.Search.solution) =
    check_bits name (oracle problem sol.Specsyn.Search.part).Specsyn.Cost.total
      sol.Specsyn.Search.cost
  in
  check_sol "greedy" (Specsyn.Greedy.run problem);
  check_sol "group migration" (Specsyn.Group_migration.run problem);
  check_sol "random" (Specsyn.Random_part.run ~seed:3 ~restarts:5 problem);
  check_sol "annealing"
    (Specsyn.Annealing.run
       ~params:{ Specsyn.Annealing.default_params with steps = 200 }
       problem);
  check_sol "cluster" (Specsyn.Cluster.run ~k:3 problem)

let synth_graph_problem ~seed n =
  let s =
    Slif_synth.Synth.generate (Slif_synth.Synth.default_params ~seed ~nodes:n Slif_synth.Synth.Mixed)
  in
  Specsyn.Search.problem ~constraints:(constraints_for s) (Slif.Graph.make s)

(* The move engine's caches over a long walk: a 2,000-node Mixed graph,
   whose root calls ~20 chain heads and so lies in every dirty slice,
   takes 2,000 random propose/commit/rollback steps, and the pending and
   resolved states are checked against the oracle every 100 steps. *)
let test_long_walk_matches_oracle () =
  let problem, eng = engine_of_problem (synth_graph_problem ~seed:3 2000) in
  let rng = Slif_util.Prng.create 17 in
  for step = 1 to 2000 do
    let check = step mod 100 = 0 in
    let tag = Printf.sprintf "mixed/2000 step %d" step in
    (match Specsyn.Engine.random_move eng rng with
    | None -> ()
    | Some move ->
        ignore (Specsyn.Engine.propose eng move);
        if check then check_against_oracle (tag ^ " pending") problem eng;
        if Slif_util.Prng.int rng 4 = 0 then Specsyn.Engine.commit eng
        else Specsyn.Engine.rollback eng);
    if check then check_against_oracle tag problem eng
  done

(* One bus-tree leaf per source node: node counts covering the smallest
   trees, and one below, at and above a power of two. *)
let test_small_source_trees_match_oracle () =
  List.iter
    (fun n ->
      let problem, eng = engine_of_problem (synth_graph_problem ~seed:5 n) in
      let label = Printf.sprintf "synth/%d nodes" n in
      check_against_oracle (label ^ " created") problem eng;
      random_moves_match_oracle label problem eng ~steps:60)
    [ 2; 3; 5; 31; 32; 33; 63; 64; 65 ]

(* A recursive behavior is a call channel from a node to itself: it sits
   in both the node's out-row and its in-row, and the engine's incident
   list must hold it once.  Synthetic graphs have no self-loop, so this
   case adds one to every seventh behavior and walks 500 seeded moves,
   checking the engine against a fresh estimator every 50. *)
let test_self_loop_walk_matches_oracle () =
  let s =
    Slif_synth.Synth.generate
      (Slif_synth.Synth.default_params ~seed:5 ~nodes:300 Slif_synth.Synth.Mixed)
  in
  let n_chans = Array.length s.Slif.Types.chans in
  let loops =
    Array.to_list s.Slif.Types.nodes
    |> List.filter (fun (n : Slif.Types.node) ->
           n.n_id mod 7 = 0
           && match n.n_kind with Slif.Types.Behavior _ -> true | _ -> false)
    |> List.mapi (fun k (n : Slif.Types.node) ->
           {
             Slif.Types.c_id = n_chans + k;
             c_src = n.n_id;
             c_dst = Slif.Types.Dnode n.n_id;
             c_accfreq = 2.0;
             c_accfreq_min = 1.0;
             c_accfreq_max = 3.0;
             c_bits = 32;
             c_tag = None;
             c_kind = Slif.Types.Call;
           })
  in
  if loops = [] then Alcotest.fail "no behavior to make recursive";
  let s = { s with Slif.Types.chans = Array.append s.Slif.Types.chans (Array.of_list loops) } in
  let problem, eng =
    engine_of_problem
      (Specsyn.Search.problem ~constraints:(constraints_for s) (Slif.Graph.make s))
  in
  check_against_oracle "self-loops created" problem eng;
  let rng = Slif_util.Prng.create 29 in
  for step = 1 to 500 do
    (match Specsyn.Engine.random_move eng rng with
    | None -> ()
    | Some move ->
        ignore (Specsyn.Engine.propose eng move);
        if Slif_util.Prng.bool rng then Specsyn.Engine.commit eng
        else Specsyn.Engine.rollback eng);
    if step mod 50 = 0 then begin
      let tag = Printf.sprintf "self-loops step %d" step in
      check_bits (tag ^ " cost")
        (oracle problem (Specsyn.Engine.partition eng)).Specsyn.Cost.total
        (Specsyn.Engine.cost eng);
      check_against_oracle tag problem eng
    end
  done

let suite =
  [
    Alcotest.test_case "aggregates match oracle at creation" `Quick
      test_create_matches_oracle;
    Alcotest.test_case "random move sequences match oracle" `Quick
      test_random_moves_match_oracle;
    Alcotest.test_case "group moves are atomic" `Quick test_group_moves_atomic;
    Alcotest.test_case "infeasible moves leave state unchanged" `Quick
      test_infeasible_move_leaves_state;
    Alcotest.test_case "transaction discipline enforced" `Quick
      test_transaction_discipline;
    Alcotest.test_case "candidates match comps_for_node" `Quick
      test_candidates_match_search;
    Alcotest.test_case "moves_to reaches its target" `Quick test_moves_to_reaches_target;
    Alcotest.test_case "algorithm costs equal oracle costs" `Quick
      test_engine_algorithms_agree_with_oracle;
    Alcotest.test_case "every small bus-tree shape matches oracle" `Quick
      test_synth_tree_shapes_match_oracle;
    Alcotest.test_case "re-bussing moves match oracle" `Quick test_rebus_moves_match_oracle;
    Alcotest.test_case "2,000-step walk on a wide root matches oracle" `Quick
      test_long_walk_matches_oracle;
    Alcotest.test_case "every small per-source tree matches oracle" `Quick
      test_small_source_trees_match_oracle;
    Alcotest.test_case "500-step walk with self-loops matches oracle" `Quick
      test_self_loop_walk_matches_oracle;
  ]
