(* Allocation, cost, the partitioning algorithms, and transformations. *)

let annotated = Helpers.fuzzy_slif

let problem_for alloc =
  let s = Specsyn.Alloc.apply (Lazy.force annotated) alloc in
  let graph = Slif.Graph.make s in
  (s, Specsyn.Search.problem graph)

let checkf = Alcotest.(check (float 1e-9))

let test_alloc_apply () =
  let s = Specsyn.Alloc.apply (Lazy.force annotated) (Specsyn.Alloc.proc_asic ()) in
  Alcotest.(check int) "two processors" 2 (Array.length s.Slif.Types.procs);
  Alcotest.(check int) "one bus" 1 (Array.length s.Slif.Types.buses);
  Alcotest.(check string) "cpu tech" "cpu32" s.Slif.Types.procs.(0).p_tech

let test_alloc_catalog_names_unique () =
  let names = List.map (fun a -> a.Specsyn.Alloc.alloc_name) Specsyn.Alloc.catalog in
  Alcotest.(check int) "unique" (List.length names) (List.length (List.sort_uniq compare names))

let test_seed_partition_proper () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic ()) in
  let part = Specsyn.Search.seed_partition (Slif.Graph.slif problem.Specsyn.Search.graph) in
  Alcotest.(check bool) "proper" true (Slif.Validate.is_proper part)

let test_seed_partition_requires_components () =
  match Specsyn.Search.seed_partition (Lazy.force annotated) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure without components"

let test_cost_zero_when_unconstrained () =
  let s = Specsyn.Alloc.apply (Lazy.force annotated) (Specsyn.Alloc.single_cpu ()) in
  (* Remove the bus capacity so no term can fire. *)
  let buses = Array.map (fun b -> { b with Slif.Types.b_capacity_mbps = None }) s.Slif.Types.buses in
  let s = { s with Slif.Types.buses } in
  let graph = Slif.Graph.make s in
  let part = Specsyn.Search.seed_partition s in
  let est = Specsyn.Search.estimator graph part in
  checkf "no constraints, no cost" 0.0
    (Specsyn.Cost.total ~constraints:Specsyn.Cost.no_constraints est)

let test_cost_size_violation () =
  let s =
    Specsyn.Alloc.apply (Lazy.force annotated) (Specsyn.Alloc.single_cpu ~size_cap:1.0 ())
  in
  let graph = Slif.Graph.make s in
  let part = Specsyn.Search.seed_partition s in
  let est = Specsyn.Search.estimator graph part in
  let b = Specsyn.Cost.evaluate ~constraints:Specsyn.Cost.no_constraints est in
  Alcotest.(check bool) "size violation fires" true (b.Specsyn.Cost.size_violation > 0.0)

let test_cost_deadline_violation () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic ()) in
  let part = Specsyn.Search.seed_partition (Slif.Graph.slif problem.Specsyn.Search.graph) in
  let est = Specsyn.Search.estimator problem.Specsyn.Search.graph part in
  let constraints = { Specsyn.Cost.deadlines_us = [ ("fuzzymain", 0.001) ] } in
  let b = Specsyn.Cost.evaluate ~constraints est in
  Alcotest.(check bool) "deadline violation fires" true (b.Specsyn.Cost.time_violation > 0.0);
  let loose = { Specsyn.Cost.deadlines_us = [ ("fuzzymain", 1e9) ] } in
  let b2 = Specsyn.Cost.evaluate ~constraints:loose est in
  checkf "loose deadline costs nothing" 0.0 b2.Specsyn.Cost.time_violation

(* The problem's cost of a partition, scored on a fresh estimator. *)
let seed_cost (problem : Specsyn.Search.problem) part =
  Specsyn.Cost.total ~weights:problem.weights ~constraints:problem.constraints
    (Specsyn.Search.estimator problem.graph part)

let solution_is_proper (sol : Specsyn.Search.solution) =
  Slif.Validate.is_proper sol.Specsyn.Search.part

let test_random_solutions_proper () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic_mem ()) in
  let sol = Specsyn.Random_part.run ~seed:3 ~restarts:20 problem in
  Alcotest.(check bool) "proper" true (solution_is_proper sol);
  Alcotest.(check int) "evaluated = restarts" 20 sol.Specsyn.Search.evaluated

let test_random_deterministic_per_seed () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic ()) in
  let a = Specsyn.Random_part.run ~seed:5 ~restarts:10 problem in
  let b = Specsyn.Random_part.run ~seed:5 ~restarts:10 problem in
  checkf "same cost for same seed" a.Specsyn.Search.cost b.Specsyn.Search.cost

let test_greedy_no_worse_than_seed () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic ()) in
  let s = Slif.Graph.slif problem.Specsyn.Search.graph in
  let seed = Specsyn.Search.seed_partition s in
  let seed_cost = seed_cost problem seed in
  let sol = Specsyn.Greedy.run problem in
  Alcotest.(check bool) "greedy <= seed" true (sol.Specsyn.Search.cost <= seed_cost +. 1e-9);
  Alcotest.(check bool) "proper" true (solution_is_proper sol)

let test_group_migration_improves () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic ()) in
  let s = Slif.Graph.slif problem.Specsyn.Search.graph in
  let seed = Specsyn.Search.seed_partition s in
  let seed_cost = seed_cost problem seed in
  let sol = Specsyn.Group_migration.run problem in
  Alcotest.(check bool) "gm <= seed" true (sol.Specsyn.Search.cost <= seed_cost +. 1e-9);
  Alcotest.(check bool) "proper" true (solution_is_proper sol);
  Alcotest.(check bool) "explored many partitions" true (sol.Specsyn.Search.evaluated > 50)

let test_annealing_deterministic_and_proper () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic_mem ()) in
  let params = { Specsyn.Annealing.default_params with steps = 300; seed = 11 } in
  let a = Specsyn.Annealing.run ~params problem in
  let b = Specsyn.Annealing.run ~params problem in
  checkf "deterministic" a.Specsyn.Search.cost b.Specsyn.Search.cost;
  Alcotest.(check bool) "proper" true (solution_is_proper a)

let test_annealing_beats_or_ties_seed () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic ()) in
  let s = Slif.Graph.slif problem.Specsyn.Search.graph in
  let seed = Specsyn.Search.seed_partition s in
  let seed_cost = seed_cost problem seed in
  let sol = Specsyn.Annealing.run ~params:{ Specsyn.Annealing.default_params with steps = 500 } problem in
  Alcotest.(check bool) "sa <= seed" true (sol.Specsyn.Search.cost <= seed_cost +. 1e-9)

let test_explore_sorted () =
  let entries =
    Specsyn.Explore.run
      ~algos:[ Specsyn.Explore.Random 10; Specsyn.Explore.Greedy ]
      ~allocs:[ Specsyn.Alloc.single_cpu (); Specsyn.Alloc.proc_asic () ]
      (Lazy.force annotated)
  in
  Alcotest.(check int) "2x2 entries" 4 (List.length entries);
  let costs = List.map (fun e -> e.Specsyn.Explore.solution.Specsyn.Search.cost) entries in
  Alcotest.(check bool) "sorted ascending" true (costs = List.sort compare costs)

let test_reports_render () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic ()) in
  let part = Specsyn.Search.seed_partition (Slif.Graph.slif problem.Specsyn.Search.graph) in
  let est = Specsyn.Search.estimator problem.Specsyn.Search.graph part in
  let report = Specsyn.Report.partition_report est in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions the cpu" true (contains "cpu" report);
  Alcotest.(check bool) "mentions the processes" true (contains "fuzzymain" report);
  let entries =
    Specsyn.Explore.run ~algos:[ Specsyn.Explore.Greedy ]
      ~allocs:[ Specsyn.Alloc.single_cpu () ] (Lazy.force annotated)
  in
  Alcotest.(check bool) "explore report renders" true
    (contains "greedy" (Specsyn.Report.explore_report entries))

(* --- Clustering ---------------------------------------------------------- *)

let test_closeness_symmetric_nonneg () =
  let s = Specsyn.Alloc.apply (Lazy.force annotated) (Specsyn.Alloc.proc_asic ()) in
  let graph = Slif.Graph.make s in
  let n = Array.length s.Slif.Types.nodes in
  for a = 0 to min 9 (n - 1) do
    for b = 0 to min 9 (n - 1) do
      let cab = Specsyn.Cluster.closeness graph a b in
      let cba = Specsyn.Cluster.closeness graph b a in
      Alcotest.(check (float 1e-9)) "symmetric" cab cba;
      Alcotest.(check bool) "non-negative" true (cab >= 0.0)
    done
  done;
  Alcotest.(check (float 1e-9)) "self closeness zero" 0.0
    (Specsyn.Cluster.closeness graph 0 0)

let test_closeness_tracks_traffic () =
  (* evaluate_rule talks to mr1 heavily (65x15-bit-style accesses) and to
     err_code not at all: closeness must reflect it. *)
  let s = Specsyn.Alloc.apply (Lazy.force annotated) (Specsyn.Alloc.proc_asic ()) in
  let graph = Slif.Graph.make s in
  let id name =
    match Slif.Types.node_by_name s name with Some n -> n.n_id | None -> Alcotest.fail name
  in
  let hot = Specsyn.Cluster.closeness graph (id "evaluate_rule") (id "mr1") in
  let cold = Specsyn.Cluster.closeness graph (id "evaluate_rule") (id "deadband") in
  Alcotest.(check bool) "traffic dominates" true (hot > cold)

let test_clusters_partition_nodes () =
  let s = Specsyn.Alloc.apply (Lazy.force annotated) (Specsyn.Alloc.proc_asic ()) in
  let graph = Slif.Graph.make s in
  let n = Array.length s.Slif.Types.nodes in
  let groups = Specsyn.Cluster.clusters graph ~k:4 in
  let all = List.concat groups |> List.sort compare in
  Alcotest.(check (list int)) "every node exactly once" (List.init n (fun i -> i)) all;
  Alcotest.(check bool) "at most n groups, at least k-ish" true
    (List.length groups >= 1 && List.length groups <= n)

let test_clusters_merge_reduces_count () =
  let s = Specsyn.Alloc.apply (Lazy.force annotated) (Specsyn.Alloc.proc_asic ()) in
  let graph = Slif.Graph.make s in
  let few = List.length (Specsyn.Cluster.clusters graph ~k:2) in
  let many = List.length (Specsyn.Cluster.clusters graph ~k:12) in
  Alcotest.(check bool) "k=2 groups fewer than k=12" true (few <= many)

let test_cluster_run_proper () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic ()) in
  let sol = Specsyn.Cluster.run ~k:2 problem in
  Alcotest.(check bool) "proper partition" true (solution_is_proper sol)

let test_cluster_rejects_bad_k () =
  let _, problem = problem_for (Specsyn.Alloc.proc_asic ()) in
  match Specsyn.Cluster.run ~k:0 problem with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k=0 accepted"

(* --- Transformations ---------------------------------------------------- *)

let test_inline_removes_call_channel () =
  let s = Lazy.force annotated in
  let s' = Specsyn.Transform.inline ~caller:"fuzzymain" ~callee:"convolve" s in
  (match Slif.Types.node_by_name s' "convolve" with
  | None -> ()
  | Some _ -> Alcotest.fail "convolve should be gone (single caller)");
  let main =
    match Slif.Types.node_by_name s' "fuzzymain" with
    | Some n -> n
    | None -> Alcotest.fail "fuzzymain missing"
  in
  let orig_main =
    match Slif.Types.node_by_name s "fuzzymain" with Some n -> n | None -> assert false
  in
  Alcotest.(check bool) "caller ict grew" true
    (List.assoc "cpu32" main.n_ict > List.assoc "cpu32" orig_main.n_ict);
  Alcotest.(check bool) "caller size grew" true
    (List.assoc "cpu32" main.n_size > List.assoc "cpu32" orig_main.n_size)

let test_inline_rescales_frequencies () =
  let s = Lazy.force annotated in
  (* evaluate_rule is called twice; its channel to tmr1 must arrive at
     fuzzymain with double frequency. *)
  let freq_to name (slif : Slif.Types.t) src_name =
    let src =
      match Slif.Types.node_by_name slif src_name with Some n -> n.n_id | None -> -1
    in
    let dst =
      match Slif.Types.node_by_name slif name with Some n -> n.n_id | None -> -1
    in
    Array.to_list slif.Slif.Types.chans
    |> List.fold_left
         (fun acc (c : Slif.Types.channel) ->
           if c.c_src = src && c.c_dst = Slif.Types.Dnode dst then acc +. c.c_accfreq else acc)
         0.0
  in
  let before = freq_to "tmr1" s "evaluate_rule" in
  let s' = Specsyn.Transform.inline ~caller:"fuzzymain" ~callee:"evaluate_rule" s in
  let after_via_main = freq_to "tmr1" s' "fuzzymain" in
  Alcotest.(check bool) "frequency scaled by call count (2x)" true
    (after_via_main >= 2.0 *. before -. 1e-9)

let test_inline_keeps_shared_callee () =
  let s = Lazy.force annotated in
  (* min2 is called by several behaviors; inlining into convolve must keep
     the node for the other callers. *)
  let s' = Specsyn.Transform.inline ~caller:"convolve" ~callee:"min2" s in
  Alcotest.(check bool) "min2 survives" true (Slif.Types.node_by_name s' "min2" <> None)

let test_inline_errors () =
  let s = Lazy.force annotated in
  (match Specsyn.Transform.inline ~caller:"fuzzymain" ~callee:"nonexistent" s with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "missing callee accepted");
  match Specsyn.Transform.inline ~caller:"convolve" ~callee:"fuzzymain" s with
  | exception Specsyn.Transform.Not_a_call _ -> ()
  | _ -> Alcotest.fail "non-call inline accepted"

let test_merge_processes () =
  let s = Lazy.force annotated in
  let s' = Specsyn.Transform.merge_processes s "fuzzymain" "selftest" in
  (match Slif.Types.node_by_name s' "fuzzymain_selftest" with
  | Some merged ->
      Alcotest.(check bool) "merged is a process" true (Slif.Types.is_process merged);
      let orig_main =
        match Slif.Types.node_by_name s "fuzzymain" with Some n -> n | None -> assert false
      in
      let orig_st =
        match Slif.Types.node_by_name s "selftest" with Some n -> n | None -> assert false
      in
      checkf "ict sums"
        (List.assoc "cpu32" orig_main.n_ict +. List.assoc "cpu32" orig_st.n_ict)
        (List.assoc "cpu32" merged.n_ict)
  | None -> Alcotest.fail "merged node missing");
  Alcotest.(check bool) "originals gone" true
    (Slif.Types.node_by_name s' "fuzzymain" = None
    && Slif.Types.node_by_name s' "selftest" = None);
  (* One fewer process overall. *)
  let count_processes (slif : Slif.Types.t) =
    Array.to_list slif.Slif.Types.nodes |> List.filter Slif.Types.is_process |> List.length
  in
  Alcotest.(check int) "process count drops" (count_processes s - 1) (count_processes s')

let test_merge_rejects_non_process () =
  let s = Lazy.force annotated in
  match Specsyn.Transform.merge_processes s "fuzzymain" "convolve" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "merging a procedure accepted"

let test_transform_result_still_estimable () =
  let s = Lazy.force annotated in
  let s' = Specsyn.Transform.inline ~caller:"fuzzymain" ~callee:"convolve" s in
  let s'' = Specsyn.Transform.merge_processes s' "fuzzymain" "selftest" in
  let with_comps = Specsyn.Alloc.apply s'' (Specsyn.Alloc.proc_asic ()) in
  let graph = Slif.Graph.make with_comps in
  let part = Specsyn.Search.seed_partition with_comps in
  let est = Specsyn.Search.estimator graph part in
  let merged =
    match Slif.Types.node_by_name with_comps "fuzzymain_selftest" with
    | Some n -> n
    | None -> Alcotest.fail "merged node"
  in
  let t = Slif.Estimate.exectime_us est merged.n_id in
  Alcotest.(check bool) "exectime finite" true (Float.is_finite t && t > 0.0)

let suite =
  [
    Alcotest.test_case "allocation applies components" `Quick test_alloc_apply;
    Alcotest.test_case "allocation catalog names unique" `Quick test_alloc_catalog_names_unique;
    Alcotest.test_case "seed partition is proper" `Quick test_seed_partition_proper;
    Alcotest.test_case "seed partition needs components" `Quick test_seed_partition_requires_components;
    Alcotest.test_case "cost zero when unconstrained" `Quick test_cost_zero_when_unconstrained;
    Alcotest.test_case "cost: size violations" `Quick test_cost_size_violation;
    Alcotest.test_case "cost: deadline violations" `Quick test_cost_deadline_violation;
    Alcotest.test_case "random solutions proper" `Quick test_random_solutions_proper;
    Alcotest.test_case "random deterministic per seed" `Quick test_random_deterministic_per_seed;
    Alcotest.test_case "greedy no worse than seed" `Quick test_greedy_no_worse_than_seed;
    Alcotest.test_case "group migration improves" `Quick test_group_migration_improves;
    Alcotest.test_case "annealing deterministic" `Quick test_annealing_deterministic_and_proper;
    Alcotest.test_case "annealing beats seed" `Quick test_annealing_beats_or_ties_seed;
    Alcotest.test_case "explore results sorted" `Quick test_explore_sorted;
    Alcotest.test_case "closeness symmetric" `Quick test_closeness_symmetric_nonneg;
    Alcotest.test_case "closeness tracks traffic" `Quick test_closeness_tracks_traffic;
    Alcotest.test_case "clusters partition the nodes" `Quick test_clusters_partition_nodes;
    Alcotest.test_case "clusters merge monotonically" `Quick test_clusters_merge_reduces_count;
    Alcotest.test_case "cluster seeding is proper" `Quick test_cluster_run_proper;
    Alcotest.test_case "cluster rejects bad k" `Quick test_cluster_rejects_bad_k;
    Alcotest.test_case "reports render" `Quick test_reports_render;
    Alcotest.test_case "inline removes the call channel" `Quick test_inline_removes_call_channel;
    Alcotest.test_case "inline rescales frequencies" `Quick test_inline_rescales_frequencies;
    Alcotest.test_case "inline keeps shared callees" `Quick test_inline_keeps_shared_callee;
    Alcotest.test_case "inline error cases" `Quick test_inline_errors;
    Alcotest.test_case "merge processes" `Quick test_merge_processes;
    Alcotest.test_case "merge rejects non-processes" `Quick test_merge_rejects_non_process;
    Alcotest.test_case "transforms keep SLIF estimable" `Quick test_transform_result_still_estimable;
  ]
