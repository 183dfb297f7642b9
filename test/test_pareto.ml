(* Pareto-front extraction over the time/area trade-off. *)

let graph_of_fuzzy =
  lazy
    (let s =
       Specsyn.Alloc.apply (Lazy.force Helpers.fuzzy_slif) (Specsyn.Alloc.proc_asic ())
     in
     Slif.Graph.make s)

let graph_of_ether =
  lazy
    (let slif = Slif_server.Ops.annotated (Specs.Registry.find_exn "ether").source in
     Slif.Graph.make (Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic ())))

(* A front point as [slif partition --pareto] prints it:
   worst exectime (us) / hw gates / sw bytes / time weight. *)
let row (p : Specsyn.Pareto.point) =
  Printf.sprintf "%.1f/%.0f/%.0f/%.1f" p.worst_exectime_us p.hw_gates p.sw_bytes p.weight_time

(* ether's front at the default sweep, the one EXPERIMENTS.md quotes. *)
let ether_front =
  [
    "910.4/110846/7568/8.0";
    "912.8/44158/8680/16.0";
    "948.3/42340/8972/2.0";
    "1021.2/37328/9212/4.0";
    "2534.5/31364/9308/0.1";
  ]

let mk_point t hw =
  {
    Specsyn.Pareto.part = Specsyn.Search.seed_partition (Slif.Graph.slif (Lazy.force graph_of_fuzzy));
    worst_exectime_us = t;
    hw_gates = hw;
    sw_bytes = 0.0;
    weight_time = 1.0;
  }

let test_dominated () =
  let a = mk_point 100.0 5000.0 in
  let faster_smaller = mk_point 50.0 4000.0 in
  let faster_bigger = mk_point 50.0 9000.0 in
  let survivors pts = List.length (Specsyn.Pareto.front pts) in
  Alcotest.(check int) "strictly better dominates" 1 (survivors [ a; faster_smaller ]);
  Alcotest.(check int) "trade-off does not dominate" 2 (survivors [ a; faster_bigger ]);
  Alcotest.(check int) "equal does not dominate" 2
    (survivors [ a; mk_point 100.0 5000.0 ])

let test_front_filters () =
  let pts =
    [ mk_point 100.0 1000.0; mk_point 50.0 5000.0; mk_point 120.0 1500.0; mk_point 75.0 2000.0 ]
  in
  let front = Specsyn.Pareto.front pts in
  (* (120,1500) is dominated by (100,1000); the rest trade off. *)
  Alcotest.(check int) "three survivors" 3 (List.length front);
  let times = List.map (fun p -> p.Specsyn.Pareto.worst_exectime_us) front in
  Alcotest.(check (list (float 1e-9))) "sorted by time" [ 50.0; 75.0; 100.0 ] times

let test_score_measures () =
  let graph = Lazy.force graph_of_fuzzy in
  let part = Specsyn.Search.seed_partition (Slif.Graph.slif graph) in
  let p = Specsyn.Pareto.score graph part ~weight_time:1.0 in
  Alcotest.(check bool) "time positive" true (p.Specsyn.Pareto.worst_exectime_us > 0.0);
  (* All-software seed: no custom hardware occupied. *)
  Alcotest.(check (float 1e-9)) "no hw gates on seed" 0.0 p.Specsyn.Pareto.hw_gates;
  Alcotest.(check bool) "software has bytes" true (p.Specsyn.Pareto.sw_bytes > 0.0)

let sweep_trade_off (graph, steps_per_point, expected) =
  let front = Specsyn.Pareto.sweep ?steps_per_point (Lazy.force graph) in
  Alcotest.(check bool) "non-empty front" true (front <> []);
  (* Non-dominated and sorted: times strictly increase while gates
     strictly decrease along the front. *)
  let rec check_monotone = function
    | a :: b :: rest ->
        Alcotest.(check bool) "time increases" true
          (b.Specsyn.Pareto.worst_exectime_us > a.Specsyn.Pareto.worst_exectime_us);
        Alcotest.(check bool) "gates decrease" true
          (b.Specsyn.Pareto.hw_gates < a.Specsyn.Pareto.hw_gates);
        check_monotone (b :: rest)
    | _ -> ()
  in
  check_monotone front;
  List.iter
    (fun p ->
      Alcotest.(check bool) "every front point is a proper partition" true
        (Slif.Validate.is_proper p.Specsyn.Pareto.part))
    front;
  Option.iter
    (fun rows -> Alcotest.(check (list string)) "front points" rows (List.map row front))
    expected

let test_sweep_produces_trade_off () =
  List.iter sweep_trade_off
    [ (graph_of_fuzzy, Some 150, None); (graph_of_ether, None, Some ether_front) ]

let test_sweep_deterministic () =
  let graph = Lazy.force graph_of_fuzzy in
  let f1 = Specsyn.Pareto.sweep ~steps_per_point:100 graph in
  let f2 = Specsyn.Pareto.sweep ~steps_per_point:100 graph in
  Alcotest.(check (list (float 1e-9))) "same front each run"
    (List.map (fun p -> p.Specsyn.Pareto.worst_exectime_us) f1)
    (List.map (fun p -> p.Specsyn.Pareto.worst_exectime_us) f2)

let suite =
  [
    Alcotest.test_case "domination" `Quick test_dominated;
    Alcotest.test_case "front filtering" `Quick test_front_filters;
    Alcotest.test_case "scoring" `Quick test_score_measures;
    Alcotest.test_case "sweep yields a trade-off curve" `Quick test_sweep_produces_trade_off;
    Alcotest.test_case "sweep deterministic" `Quick test_sweep_deterministic;
  ]
