(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus two ablations, as laid out in DESIGN.md §3.

     Figure 4  — Lines / BV / C / T-slif / T-est per example
     R1        — format sizes: SLIF vs ADD/VT vs CDFG (fuzzy)
     R2        — cost of an n-squared partitioning algorithm per format
     R3        — preprocessed size estimation vs rough synthesis per query
     R4        — exploration throughput (partitions per second)
     A1        — ablation: estimator memoization and incremental
                 invalidation on/off
     A2        — ablation: bus width and ts/td sensitivity of exectime
     A7        — full-sweep vs delta scoring through the move engine

   Bechamel measures the per-query micro-costs; wall-clock timing covers
   the one-shot build times.  Absolute numbers are host-dependent; the
   shapes are what EXPERIMENTS.md compares against the paper. *)

open Bechamel
open Toolkit

(* --- Shared pipeline ----------------------------------------------------- *)

let pipeline (spec : Specs.Registry.spec) =
  let design = Vhdl.Parser.parse spec.source in
  let sem = Vhdl.Sem.build design in
  let slif = Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem) in
  (design, sem, slif)

let proc_asic_setup slif =
  let s = Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic ()) in
  let graph = Slif.Graph.make s in
  let part = Specsyn.Search.seed_partition s in
  (s, graph, part)

let all_processes (s : Slif.Types.t) =
  Array.to_list s.nodes |> List.filter Slif.Types.is_process

let full_estimate graph part (s : Slif.Types.t) =
  let est = Specsyn.Search.estimator graph part in
  List.iter (fun (n : Slif.Types.node) -> ignore (Slif.Estimate.exectime_us est n.n_id))
    (all_processes s);
  ignore (Slif.Estimate.size est (Slif.Partition.Cproc 0));
  ignore (Slif.Estimate.size est (Slif.Partition.Cproc 1));
  ignore (Slif.Estimate.io_pins est (Slif.Partition.Cproc 0));
  ignore (Slif.Estimate.io_pins est (Slif.Partition.Cproc 1));
  ignore (Slif.Estimate.bus_bitrate_mbps est 0)

(* --- Bechamel helpers ------------------------------------------------------ *)

let benchmark_ns test =
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with Some (v :: _) -> v | _ -> nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort compare

let print_bench_group title tests =
  Printf.printf "\n-- bechamel: %s --\n" title;
  let table = Slif_util.Table.create ~header:[ "benchmark"; "ns/run"; "us/run" ] in
  List.iter
    (fun test ->
      List.iter
        (fun (name, ns) ->
          Slif_util.Table.add_row table
            [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.3f" (ns /. 1e3) ])
        (benchmark_ns test))
    tests;
  Slif_util.Table.print table

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

(* --- Figure 4 --------------------------------------------------------------- *)

let figure4 () =
  section "Figure 4: building SLIF and obtaining estimations";
  let table =
    Slif_util.Table.create
      ~header:[ ""; "Lines"; "BV"; "C"; "T-slif(s)"; "T-est(s)"; "paper T-slif"; "paper T-est" ]
  in
  let paper_tslif = [ ("ans", 2.20); ("ether", 10.40); ("fuzzy", 0.46); ("vol", 0.34) ] in
  List.iter
    (fun (spec : Specs.Registry.spec) ->
      let _, _, slif = pipeline spec in
      (* T-slif: VHDL text to annotated SLIF, the mean of 20 warm runs. *)
      let t_slif = Slif_obs.Clock.time_n 20 (fun () -> pipeline spec) in
      Slif_obs.Counter.add
        (Printf.sprintf "bench.figure4.%s.tslif_us" spec.spec_name)
        (int_of_float (t_slif *. 1e6));
      let s, graph, part = proc_asic_setup slif in
      let t_est = Slif_obs.Clock.time_n 20 (fun () -> full_estimate graph part s) in
      let stats = Slif.Stats.of_slif slif in
      Slif_util.Table.add_row table
        [
          spec.spec_name;
          string_of_int (Specs.Registry.line_count spec);
          string_of_int stats.Slif.Stats.bv;
          string_of_int stats.Slif.Stats.channels;
          Printf.sprintf "%.4f" t_slif;
          Printf.sprintf "%.6f" t_est;
          Printf.sprintf "%.2f" (List.assoc spec.spec_name paper_tslif);
          "0.00";
        ])
    Specs.Registry.all;
  Slif_util.Table.print table;
  print_endline
    "(paper times are on a Sparc 2; the shape to check: T-slif of seconds-or-less,\n\
    \ scaling with Lines, and T-est orders of magnitude below T-slif)";
  (* Micro-benches for the same quantities on the largest example. *)
  let spec = Specs.Registry.find_exn "ether" in
  let _, _, slif = pipeline spec in
  let s, graph, part = proc_asic_setup slif in
  print_bench_group "build vs estimate (ether)"
    [
      Test.make ~name:"T-slif: parse+build+annotate ether"
        (Staged.stage (fun () -> ignore (pipeline spec)));
      Test.make ~name:"T-est: all metrics, one partition (ether)"
        (Staged.stage (fun () -> full_estimate graph part s));
    ]

(* --- R1 / R2: format sizes and n-squared costs ----------------------------- *)

let r1_r2 () =
  section "R1/R2: format sizes and the cost of an n^2 algorithm";
  List.iter
    (fun (spec : Specs.Registry.spec) ->
      let design, sem, _ = pipeline spec in
      let stats = Slif.Stats.of_slif (Slif.Build.build sem) in
      let add = Addfmt.Add.of_design design in
      let cdfg = Cdfg.Graph.of_design design in
      Printf.printf "\n--- %s ---\n" spec.spec_name;
      let table =
        Slif_util.Table.create ~header:[ "format"; "nodes"; "edges"; "n^2 computations" ]
      in
      let row name n e =
        Slif_util.Table.add_row table
          [ name; string_of_int n; string_of_int e; string_of_int (n * n) ]
      in
      row "SLIF-AG" stats.Slif.Stats.bv stats.Slif.Stats.channels;
      row "ADD/VT" (Addfmt.Add.node_count add) (Addfmt.Add.edge_count add);
      row "CDFG" (Cdfg.Graph.node_count cdfg) (Cdfg.Graph.edge_count cdfg);
      Slif_util.Table.print table)
    Specs.Registry.all;
  print_endline
    "\n(paper, fuzzy: SLIF 35/56, ADD >450/400, CDFG >1100/900; n^2 costs 1225 /\n\
    \ 202500 / 1210000 — the orderings and the quadratic blow-up are the claims)";
  (* Measure an actual O(n^2) pass over each format's nodes for fuzzy. *)
  let spec = Specs.Registry.find_exn "fuzzy" in
  let design, sem, _ = pipeline spec in
  let slif_n = (Slif.Stats.of_slif (Slif.Build.build sem)).Slif.Stats.bv in
  let add_n = Addfmt.Add.node_count (Addfmt.Add.of_design design) in
  let cdfg_n = Cdfg.Graph.node_count (Cdfg.Graph.of_design design) in
  let n2_work n =
    (* A stand-in pairwise computation (e.g. a closeness metric). *)
    let acc = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        acc := !acc + ((i * j) mod 7)
      done
    done;
    !acc
  in
  print_bench_group "n^2 sweep per format granularity (fuzzy)"
    [
      Test.make ~name:(Printf.sprintf "n2 over SLIF   (n=%d)" slif_n)
        (Staged.stage (fun () -> ignore (n2_work slif_n)));
      Test.make ~name:(Printf.sprintf "n2 over ADD/VT (n=%d)" add_n)
        (Staged.stage (fun () -> ignore (n2_work add_n)));
      Test.make ~name:(Printf.sprintf "n2 over CDFG   (n=%d)" cdfg_n)
        (Staged.stage (fun () -> ignore (n2_work cdfg_n)));
    ]

(* --- R3: preprocessing payoff ------------------------------------------------ *)

let r3 () =
  section "R3: preprocessed size estimation vs rough synthesis per query";
  let spec = Specs.Registry.find_exn "fuzzy" in
  let design, _, slif = pipeline spec in
  let s, graph, part = proc_asic_setup slif in
  let est = Specsyn.Search.estimator graph part in
  let cdfg = Cdfg.Graph.of_design design in
  ignore s;
  print_bench_group "size query (fuzzy, ASIC node set)"
    [
      Test.make ~name:"SLIF: sum preprocessed weights"
        (Staged.stage (fun () -> ignore (Slif.Estimate.size est (Slif.Partition.Cproc 0))));
      Test.make ~name:"CDFG: rough synthesis of the node set"
        (Staged.stage (fun () ->
             ignore (Cdfg.Synthest.rough_synthesis Tech.Parts.asic_gal cdfg)));
    ];
  (* What the gap means for a 1000-partition exploration. *)
  let t_slif =
    Slif_obs.Clock.time_n 1000 (fun () -> Slif.Estimate.size est (Slif.Partition.Cproc 0))
  in
  let t_synth =
    Slif_obs.Clock.time_n 20 (fun () ->
        Cdfg.Synthest.rough_synthesis Tech.Parts.asic_gal cdfg)
  in
  Printf.printf
    "\nexploring 1000 partitions: SLIF %.2f ms vs re-synthesis %.2f ms (%.0fx)\n"
    (t_slif *. 1e6) (t_synth *. 1e6) (t_synth /. t_slif)

(* --- R4: exploration throughput ---------------------------------------------- *)

let r4 () =
  section "R4: exploration throughput (thousands of designs)";
  let spec = Specs.Registry.find_exn "ether" in
  let _, _, slif = pipeline spec in
  let constraints =
    { Specsyn.Cost.deadlines_us = [ ("txctl", 2000.0); ("rxctl", 2000.0) ] }
  in
  let entries =
    Specsyn.Explore.run ~constraints
      ~algos:
        [
          Specsyn.Explore.Random 200;
          Specsyn.Explore.Greedy;
          Specsyn.Explore.Group_migration;
          Specsyn.Explore.Annealing { Specsyn.Annealing.default_params with steps = 2000 };
          Specsyn.Explore.Clustering 4;
        ]
      ~allocs:[ Specsyn.Alloc.proc_asic (); Specsyn.Alloc.proc_asic_mem () ]
      slif
  in
  print_endline (Specsyn.Report.explore_report entries);
  let total =
    List.fold_left (fun acc e -> acc + e.Specsyn.Explore.solution.Specsyn.Search.evaluated) 0 entries
  in
  let time = List.fold_left (fun acc e -> acc +. e.Specsyn.Explore.elapsed_s) 0.0 entries in
  Slif_obs.Counter.add "bench.r4.partitions" total;
  Slif_obs.Counter.add "bench.r4.designs_per_s" (int_of_float (float_of_int total /. time));
  Printf.printf "\ntotal: %d partitions in %.2fs -> %.0f designs/second\n" total time
    (float_of_int total /. time)

(* --- A1: memoization ablation -------------------------------------------------- *)

let a1 () =
  section "A1 (ablation): estimator caching strategies";
  let spec = Specs.Registry.find_exn "ether" in
  let _, _, slif = pipeline spec in
  let s, graph, part = proc_asic_setup slif in
  let procs = all_processes s in
  let node_count = Array.length s.Slif.Types.nodes in
  let rng = Slif_util.Prng.create 99 in
  (* One workload: move a random node, then query every process time. *)
  let workload invalidate est =
    let node = Slif_util.Prng.int rng node_count in
    let target =
      if Slif.Types.is_behavior s.Slif.Types.nodes.(node) then
        Slif.Partition.Cproc (Slif_util.Prng.int rng 2)
      else Slif.Partition.Cproc (Slif_util.Prng.int rng 2)
    in
    Slif.Partition.assign_node part ~node target;
    (match invalidate with
    | `Full -> Slif.Estimate.invalidate_all est
    | `Incremental -> ignore (Slif.Estimate.note_node_moved est node));
    List.iter
      (fun (n : Slif.Types.node) -> ignore (Slif.Estimate.exectime_us est n.n_id))
      procs
  in
  let est_full = Specsyn.Search.estimator graph part in
  let est_incr = Specsyn.Search.estimator graph part in
  print_bench_group "move-then-requery (ether)"
    [
      Test.make ~name:"full invalidation per move"
        (Staged.stage (fun () -> workload `Full est_full));
      Test.make ~name:"incremental invalidation per move"
        (Staged.stage (fun () -> workload `Incremental est_incr));
    ];
  (* Cache effectiveness on repeated queries without moves. *)
  let est = Specsyn.Search.estimator graph part in
  List.iter (fun (n : Slif.Types.node) -> ignore (Slif.Estimate.exectime_us est n.n_id)) procs;
  let q0 = Slif.Estimate.stats_queries est and h0 = Slif.Estimate.stats_cache_hits est in
  List.iter (fun (n : Slif.Types.node) -> ignore (Slif.Estimate.exectime_us est n.n_id)) procs;
  Printf.printf "\ncache: %d queries, %d hits after warm re-query (warm-up: %d/%d)\n"
    (Slif.Estimate.stats_queries est)
    (Slif.Estimate.stats_cache_hits est)
    q0 h0

(* --- A2: bus sensitivity ------------------------------------------------------- *)

let a2 () =
  section "A2 (ablation): bus width and ts/td sensitivity of exectime";
  let spec = Specs.Registry.find_exn "fuzzy" in
  let _, _, slif = pipeline spec in
  let table =
    Slif_util.Table.create
      ~header:[ "bus width"; "td/ts"; "exectime(fuzzymain) us"; "io(asic) pins" ]
  in
  List.iter
    (fun width ->
      List.iter
        (fun td_factor ->
          let bus =
            {
              Slif.Types.b_id = 0;
              b_name = Printf.sprintf "bus%d" width;
              b_bitwidth = width;
              b_ts_us = 0.04;
              b_td_us = 0.04 *. td_factor;
              b_capacity_mbps = None;
              b_ts_by_tech = [];
              b_td_by_pair = [];
            }
          in
          let alloc = Specsyn.Alloc.proc_asic () in
          let alloc = { alloc with Specsyn.Alloc.buses = [ bus ] } in
          let s = Specsyn.Alloc.apply slif alloc in
          let graph = Slif.Graph.make s in
          let part = Specsyn.Search.seed_partition s in
          (* Split: datapath behaviors + tables on the ASIC. *)
          List.iter
            (fun name ->
              match Slif.Types.node_by_name s name with
              | Some n ->
                  Slif.Partition.assign_node part ~node:n.n_id (Slif.Partition.Cproc 1)
              | None -> ())
            [ "evaluate_rule"; "convolve"; "min2"; "max2"; "mr1"; "mr2"; "tmr1"; "tmr2" ];
          let est = Specsyn.Search.estimator graph part in
          let main =
            match Slif.Types.node_by_name s "fuzzymain" with
            | Some n -> n.n_id
            | None -> assert false
          in
          Slif_util.Table.add_row table
            [
              string_of_int width;
              Printf.sprintf "%.0fx" td_factor;
              Printf.sprintf "%.1f" (Slif.Estimate.exectime_us est main);
              string_of_int (Slif.Estimate.io_pins est (Slif.Partition.Cproc 1));
            ])
        [ 2.0; 6.0; 12.0 ])
    [ 8; 16; 32; 64 ];
  Slif_util.Table.print table;
  print_endline
    "(wider buses cut the ceil(bits/width) transfer count; higher td/ts\n\
    \ penalizes the hardware/software split — both should show monotonically)"

(* --- A3: capacity-aware execution time ---------------------------------- *)

let a3 () =
  section "A3 (ablation): bus-contention-aware execution time";
  let spec = Specs.Registry.find_exn "fuzzy" in
  let _, _, slif = pipeline spec in
  let table =
    Slif_util.Table.create
      ~header:[ "bus capacity (Mb/s)"; "slowdown"; "plain exectime us"; "contended us" ]
  in
  List.iter
    (fun cap ->
      let alloc = Specsyn.Alloc.proc_asic () in
      let buses =
        List.map
          (fun b -> { b with Slif.Types.b_capacity_mbps = Some cap })
          alloc.Specsyn.Alloc.buses
      in
      let s = Specsyn.Alloc.apply slif { alloc with Specsyn.Alloc.buses } in
      let graph = Slif.Graph.make s in
      let part = Specsyn.Search.seed_partition s in
      List.iter
        (fun name ->
          match Slif.Types.node_by_name s name with
          | Some n -> Slif.Partition.assign_node part ~node:n.n_id (Slif.Partition.Cproc 1)
          | None -> ())
        [ "evaluate_rule"; "convolve"; "mr1"; "mr2"; "tmr1"; "tmr2" ];
      let est = Specsyn.Search.estimator graph part in
      let main =
        match Slif.Types.node_by_name s "fuzzymain" with Some n -> n.n_id | None -> 0
      in
      let plain = Slif.Estimate.exectime_us est main in
      let contended = Slif.Estimate.exectime_contended_us est main in
      let factors = Slif.Estimate.bus_slowdowns est in
      Slif_util.Table.add_row table
        [
          Printf.sprintf "%.0f" cap;
          Printf.sprintf "%.2fx" factors.(0);
          Printf.sprintf "%.1f" plain;
          Printf.sprintf "%.1f" contended;
        ])
    [ 1000.0; 200.0; 64.0; 16.0; 4.0 ];
  Slif_util.Table.print table;
  print_endline
    "(once demand exceeds capacity, the slowdown factor rises and the\n\
    \ contended time diverges from the plain equation-1 estimate)"

(* --- A4: frequency-model accuracy against real execution ------------------- *)

let a4 () =
  section "A4 (ablation): frequency model vs interpreted execution";
  print_endline
    "(the paper defers quantitative accuracy measurement to future work; here\n\
    \ the statement-count prediction underlying every accfreq/ict annotation is\n\
    \ checked against the interpreter's exact step counts)";
  let table =
    Slif_util.Table.create
      ~header:
        [ "process"; "executed stmts"; "predicted (measured prof.)"; "err%";
          "predicted (static defaults)"; "err%" ]
  in
  List.iter
    (fun (spec_name, stimulus) ->
      let spec = Specs.Registry.find_exn spec_name in
      let sem = Vhdl.Sem.build (Vhdl.Parser.parse spec.Specs.Registry.source) in
      let design = Vhdl.Sem.design sem in
      List.iter
        (fun (p : Vhdl.Ast.process) ->
          let m =
            Flow.Interp.create
              ~limits:{ Flow.Interp.max_steps = 5_000_000; max_while_iters = 10_000 }
              ~inputs:stimulus sem
          in
          match Flow.Interp.run_process m p.Vhdl.Ast.proc_name with
          | () ->
              let measured = float_of_int (Flow.Interp.steps m) in
              if measured > 0.0 then begin
                let profile = Flow.Interp.profile m in
                let predicted =
                  Flow.Workload.expected_statements ~profile sem
                    ~behavior:p.Vhdl.Ast.proc_name
                in
                let static_ =
                  Flow.Workload.expected_statements ~profile:Flow.Profile.empty sem
                    ~behavior:p.Vhdl.Ast.proc_name
                in
                let err x = 100.0 *. abs_float (x -. measured) /. measured in
                Slif_util.Table.add_row table
                  [
                    spec_name ^ "/" ^ p.Vhdl.Ast.proc_name;
                    Printf.sprintf "%.0f" measured;
                    Printf.sprintf "%.1f" predicted;
                    Printf.sprintf "%.2f" (err predicted);
                    Printf.sprintf "%.1f" static_;
                    Printf.sprintf "%.0f" (err static_);
                  ]
              end
          | exception (Flow.Interp.Limit_exceeded _ | Flow.Interp.Runtime_error _) -> ())
        design.Vhdl.Ast.processes)
    [
      ("fuzzy", fun name -> if name = "in1" then 80 else if name = "in2" then 30 else 0);
      ("vol", fun name -> if name = "patient_on" then 1 else if name = "flow_in" then 500 else 0);
      ("ans", fun name -> if name = "ring_in" then 1 else if name = "line_sample" then 128 else 0);
    ];
  Slif_util.Table.print table;
  print_endline
    "(with measured branch probabilities the prediction is near-exact; with\n\
    \ uniform static defaults it deviates — why the paper profiles)"

(* --- A6: observability overhead --------------------------------------------- *)

let a6 () =
  section "A6 (ablation): observability probe overhead (disabled vs enabled)";
  print_endline
    "(every probe behind a disabled registry is one bool check; the estimator\n\
    \ hot loop is the worst case — the target for the disabled column is <5%)";
  let spec = Specs.Registry.find_exn "ether" in
  let _, _, slif = pipeline spec in
  let s, graph, part = proc_asic_setup slif in
  let reps = 300 in
  (* The harness itself runs with the registry enabled; sample both states,
     then leave it enabled for the remaining phases. *)
  Slif_obs.Registry.disable ();
  let t_off = Slif_obs.Clock.time_n reps (fun () -> full_estimate graph part s) in
  Slif_obs.Registry.enable ();
  let t_on = Slif_obs.Clock.time_n reps (fun () -> full_estimate graph part s) in
  Printf.printf
    "full_estimate(ether): disabled %.3f us/run, enabled (counters live) %.3f us/run\n\
     enabled-mode overhead: %.1f%%\n"
    (t_off *. 1e6) (t_on *. 1e6)
    (100.0 *. ((t_on /. t_off) -. 1.0))

(* --- A7: full-sweep vs delta scoring ----------------------------------------- *)

let a7 () =
  section "A7: full-sweep vs delta scoring through the move engine";
  print_endline
    "(the same recorded move trajectory is scored twice: once applying each\n\
    \ move and re-running the full Cost.evaluate sweep after invalidate_all,\n\
    \ once through Engine.propose/commit's delta evaluation — same totals,\n\
    \ different asymptotics)";
  let table =
    Slif_util.Table.create
      ~header:
        [ ""; "moves"; "full(s)"; "delta(s)"; "full parts/s"; "delta parts/s"; "speedup" ]
  in
  List.iter
    (fun (spec : Specs.Registry.spec) ->
      let _, _, slif = pipeline spec in
      let s = Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic_mem ()) in
      let graph = Slif.Graph.make s in
      let constraints =
        let processes =
          Array.to_list s.Slif.Types.nodes
          |> List.filter Slif.Types.is_process
          |> List.map (fun (n : Slif.Types.node) -> (n.Slif.Types.n_name, 1000.0))
        in
        { Specsyn.Cost.deadlines_us = processes }
      in
      let problem = Specsyn.Search.problem ~constraints graph in
      (* Record one fixed committed trajectory so both scorers walk the
         exact same partition sequence. *)
      let n_moves = 400 in
      let moves =
        let eng = Specsyn.Engine.of_problem problem (Specsyn.Search.seed_partition s) in
        let rng = Slif_util.Prng.create 2024 in
        let acc = ref [] in
        while List.length !acc < n_moves do
          match Specsyn.Engine.random_move eng rng with
          | None -> ()
          | Some move ->
              ignore (Specsyn.Engine.propose eng move);
              Specsyn.Engine.commit eng;
              acc := move :: !acc
        done;
        List.rev !acc
      in
      let rec apply_raw part = function
        | Specsyn.Engine.Move_node { node; to_ } ->
            Slif.Partition.assign_node part ~node to_
        | Specsyn.Engine.Move_chan { chan; to_bus } ->
            Slif.Partition.assign_chan part ~chan ~bus:to_bus
        | Specsyn.Engine.Move_group ms -> List.iter (apply_raw part) ms
      in
      let (), t_full =
        Slif_obs.Clock.time (fun () ->
            let part = Specsyn.Search.seed_partition s in
            let est = Specsyn.Search.estimator graph part in
            ignore (Specsyn.Cost.total ~constraints est);
            List.iter
              (fun move ->
                apply_raw part move;
                Slif.Estimate.invalidate_all est;
                ignore (Specsyn.Cost.total ~constraints est))
              moves)
      in
      let (), t_delta =
        Slif_obs.Clock.time (fun () ->
            let eng =
              Specsyn.Engine.of_problem problem (Specsyn.Search.seed_partition s)
            in
            List.iter
              (fun move ->
                ignore (Specsyn.Engine.propose eng move);
                Specsyn.Engine.commit eng)
              moves)
      in
      let per_s t = if t > 0.0 then float_of_int n_moves /. t else 0.0 in
      Slif_util.Table.add_row table
        [
          spec.spec_name;
          string_of_int n_moves;
          Printf.sprintf "%.4f" t_full;
          Printf.sprintf "%.4f" t_delta;
          Printf.sprintf "%.0f" (per_s t_full);
          Printf.sprintf "%.0f" (per_s t_delta);
          Printf.sprintf "%.1fx" (t_full /. t_delta);
        ])
    Specs.Registry.all;
  Slif_util.Table.print table;
  print_endline
    "(delta scoring should sit an order of magnitude or more above the full\n\
    \ sweep, and the gap should widen with spec size — the engine's point)"

(* --- A8: multicore exploration throughput ------------------------------------ *)

(* SLIF_BENCH_FAST=1 shrinks the search budgets to smoke-test size (the CI
   bench step); the full budgets match R4 so the -j 1 row is comparable. *)
let bench_fast = Sys.getenv_opt "SLIF_BENCH_FAST" <> None

let a8 () =
  section "A8: exploration throughput across domain counts (-j)";
  Printf.printf
    "(the R4 sweep on the domain pool; recommended domain count here: %d.\n\
    \ The merged entry list is identical at every -j — only wall-clock moves)\n"
    (Slif_util.Pool.default_jobs ());
  let spec = Specs.Registry.find_exn "ether" in
  let _, _, slif = pipeline spec in
  let constraints =
    { Specsyn.Cost.deadlines_us = [ ("txctl", 2000.0); ("rxctl", 2000.0) ] }
  in
  let algos =
    if bench_fast then
      [
        Specsyn.Explore.Random 20;
        Specsyn.Explore.Greedy;
        Specsyn.Explore.Annealing { Specsyn.Annealing.default_params with steps = 150 };
      ]
    else
      [
        Specsyn.Explore.Random 200;
        Specsyn.Explore.Greedy;
        Specsyn.Explore.Group_migration;
        Specsyn.Explore.Annealing { Specsyn.Annealing.default_params with steps = 2000 };
        Specsyn.Explore.Clustering 4;
      ]
  in
  let allocs = [ Specsyn.Alloc.proc_asic (); Specsyn.Alloc.proc_asic_mem () ] in
  let sweep jobs = Specsyn.Explore.run ~jobs ~constraints ~algos ~allocs slif in
  let table =
    Slif_util.Table.create
      ~header:[ "jobs"; "partitions"; "seconds"; "designs/s"; "speedup vs -j 1" ]
  in
  let baseline = ref nan in
  let reports = ref [] in
  let rates = ref [] in
  List.iter
    (fun jobs ->
      let entries, elapsed = Slif_obs.Clock.time (fun () -> sweep jobs) in
      reports := (jobs, Specsyn.Report.explore_report ~timings:false entries) :: !reports;
      let total =
        List.fold_left
          (fun acc (e : Specsyn.Explore.entry) ->
            acc + e.solution.Specsyn.Search.evaluated)
          0 entries
      in
      let per_s = if elapsed > 0.0 then float_of_int total /. elapsed else 0.0 in
      rates := (jobs, per_s) :: !rates;
      if jobs = 1 then baseline := per_s;
      Slif_obs.Counter.add (Printf.sprintf "bench.a8.designs_per_s.j%d" jobs)
        (int_of_float per_s);
      Slif_util.Table.add_row table
        [
          string_of_int jobs;
          string_of_int total;
          Printf.sprintf "%.3f" elapsed;
          Printf.sprintf "%.0f" per_s;
          Printf.sprintf "%.2fx" (per_s /. !baseline);
        ])
    [ 1; 2; 4; 8 ];
  Slif_util.Table.print table;
  let r1 = List.assoc 1 !reports in
  let identical = List.for_all (fun (_, r) -> r = r1) !reports in
  Printf.printf "entry lists identical across -j: %s\n" (if identical then "yes" else "NO");
  if not identical then exit 1;
  print_endline
    "(speedup tracks physical cores; on a single-core host every row sits\n\
    \ near 1.00x — determinism, not the ratio, is the invariant checked here)";
  (* CI scaling gate (SLIF_BENCH_SCALING_GATE=1): with the pool's
     hardware domain cap, asking for a second job must never cost
     throughput — on a one-core runner -j 2 runs the same single domain
     as -j 1, and on a multicore runner it should gain.  The 0.90x floor
     absorbs run-to-run noise while still catching the old inversion,
     where -j 2 ran at a fraction of -j 1. *)
  if Sys.getenv_opt "SLIF_BENCH_SCALING_GATE" <> None then begin
    let r1 = List.assoc 1 !rates and r2 = List.assoc 2 !rates in
    let ok = r2 >= 0.9 *. r1 in
    Printf.printf "scaling gate: -j2 %.0f designs/s vs -j1 %.0f (floor 0.90x): %s\n" r2 r1
      (if ok then "ok" else "FAIL");
    if not ok then exit 1
  end

(* --- A11: parallel-stack attribution + profiler overhead ---------------------- *)

(* Two claims measured: (1) the A8 sweep's wall time decomposes into
   named categories (task-run / queue-wait / lock-wait / GC / copy /
   idle) with >=90% coverage — the attribution [slif profile] reports;
   (2) the instrumentation the profiler added to the pool costs nothing
   measurable while its switches are off (target <=2% on the A8 sweep).

   Deliberately does NOT go through [Specsyn.Profiler.run]: that driver
   resets the span registry between runs, which would wipe the counters
   and phase spans every earlier bench section accumulated for
   BENCH_obs.json.  The attribution/lock/GC layers have their own
   switches and reset independently. *)
let a11 () =
  section "A11: parallel-stack attribution and profiler overhead";
  let spec = Specs.Registry.find_exn "ether" in
  let _, _, slif = pipeline spec in
  let constraints =
    { Specsyn.Cost.deadlines_us = [ ("txctl", 2000.0); ("rxctl", 2000.0) ] }
  in
  let algos =
    if bench_fast then
      [
        Specsyn.Explore.Random 20;
        Specsyn.Explore.Greedy;
        Specsyn.Explore.Annealing { Specsyn.Annealing.default_params with steps = 150 };
      ]
    else
      [
        Specsyn.Explore.Random 200;
        Specsyn.Explore.Greedy;
        Specsyn.Explore.Group_migration;
        Specsyn.Explore.Annealing { Specsyn.Annealing.default_params with steps = 2000 };
        Specsyn.Explore.Clustering 4;
      ]
  in
  let allocs = [ Specsyn.Alloc.proc_asic (); Specsyn.Alloc.proc_asic_mem () ] in
  let sweep jobs = Specsyn.Explore.run ~jobs ~constraints ~algos ~allocs slif in
  ignore (Slif_obs.Gcprof.start_timing ());
  let table =
    Slif_util.Table.create
      ~header:
        [ "jobs"; "elapsed s"; "task-run s"; "queue s"; "gc s"; "idle s"; "other s";
          "coverage" ]
  in
  List.iter
    (fun jobs ->
      Slif_obs.Attribution.reset ();
      Slif_obs.Lockprof.reset ();
      Slif_obs.Gcprof.reset ();
      Slif_obs.Attribution.enable ();
      Slif_obs.Lockprof.set_enabled true;
      Slif_obs.Gcprof.sample ();
      let _, elapsed = Slif_obs.Clock.time (fun () -> sweep jobs) in
      Slif_obs.Gcprof.poll ();
      Slif_obs.Gcprof.sample ();
      let gc_us = Slif_obs.Gcprof.gc_time_us () in
      let report =
        if gc_us > 0.0 then Slif_obs.Attribution.report ~gc_us ()
        else Slif_obs.Attribution.report ()
      in
      Slif_obs.Attribution.disable ();
      Slif_obs.Lockprof.set_enabled false;
      let cat c =
        List.assoc c report.Slif_obs.Attribution.totals
      in
      let cov = report.Slif_obs.Attribution.coverage in
      Slif_obs.Counter.add
        (Printf.sprintf "bench.a11.coverage_bp.j%d" jobs)
        (int_of_float (cov *. 1e4));
      Slif_obs.Counter.add
        (Printf.sprintf "bench.a11.task_run_ms.j%d" jobs)
        (int_of_float (cat Slif_obs.Attribution.Task_run /. 1e3));
      Slif_obs.Counter.add
        (Printf.sprintf "bench.a11.gc_ms.j%d" jobs)
        (int_of_float (cat Slif_obs.Attribution.Gc /. 1e3));
      Slif_obs.Counter.add
        (Printf.sprintf "bench.a11.idle_ms.j%d" jobs)
        (int_of_float (cat Slif_obs.Attribution.Idle /. 1e3));
      Slif_util.Table.add_row table
        [
          string_of_int jobs;
          Printf.sprintf "%.3f" elapsed;
          Printf.sprintf "%.3f" (cat Slif_obs.Attribution.Task_run /. 1e6);
          Printf.sprintf "%.3f"
            ((cat Slif_obs.Attribution.Queue_wait
             +. cat Slif_obs.Attribution.Lock_wait)
            /. 1e6);
          Printf.sprintf "%.3f" (cat Slif_obs.Attribution.Gc /. 1e6);
          Printf.sprintf "%.3f" (cat Slif_obs.Attribution.Idle /. 1e6);
          Printf.sprintf "%.3f" (report.Slif_obs.Attribution.total_other_us /. 1e6);
          Printf.sprintf "%.1f%%" (100.0 *. cov);
        ])
    (if bench_fast then [ 1; 2 ] else [ 1; 2; 4 ]);
  Slif_util.Table.print table;
  print_endline
    "(the named categories should cover >=90% of each run's measured wall;\n\
    \ on an oversubscribed host the GC and idle columns, not task-run, are\n\
    \ where the extra wall of higher -j goes)";
  (* Overhead ablation: the same sweep with every profiling switch off
     (the default state) vs fully armed.  The bench harness keeps the
     registry enabled, so switch it off for the baseline like A10 does. *)
  Slif_obs.Registry.disable ();
  let best_of n f = List.fold_left min infinity (List.init n (fun _ -> snd (Slif_obs.Clock.time f))) in
  let reps = if bench_fast then 1 else 2 in
  let t_off = best_of reps (fun () -> ignore (sweep 2)) in
  Slif_obs.Attribution.enable ();
  Slif_obs.Lockprof.set_enabled true;
  Slif_obs.Registry.enable ();
  let t_on = best_of reps (fun () -> ignore (sweep 2)) in
  Slif_obs.Attribution.disable ();
  Slif_obs.Lockprof.set_enabled false;
  Slif_obs.Attribution.reset ();
  Slif_obs.Lockprof.reset ();
  let overhead = 100.0 *. ((t_on /. t_off) -. 1.0) in
  Printf.printf
    "\nA8 sweep at -j 2: profiler off %.3f s, armed %.3f s (%+.1f%% when armed)\n"
    t_off t_on overhead;
  Slif_obs.Counter.add "bench.a11.profiler_on_overhead_bp"
    (int_of_float (Float.max 0.0 (overhead *. 100.0)));
  print_endline
    "(the off row is the shipping configuration: its only residual cost is one\n\
    \ atomic load per probe site and a quick_stat at task boundaries — the\n\
    \ armed-vs-off delta is what you pay only while [slif profile] runs)";
  (* Residual cost with everything off, measured directly: the pool's
     disabled task-run probe is a call and the switches' atomic loads;
     the always-on GC delta is one quick_stat per task boundary.
     Related to the armed run's p50 task duration, this bounds the
     disabled-profiler tax per task. *)
  let n_probe = 1_000_000 and n_stat = 100_000 in
  Slif_obs.Registry.disable ();
  let t_probe =
    snd
      (Slif_obs.Clock.time (fun () ->
           for _ = 1 to n_probe do
             Slif_obs.Span.timed ~hist:"pool.task_run_us"
               ~category:Slif_obs.Attribution.Task_run ignore
           done))
  in
  Slif_obs.Registry.enable ();
  let t_stat =
    snd
      (Slif_obs.Clock.time (fun () ->
           for _ = 1 to n_stat do
             Slif_obs.Gcprof.sample ()
           done))
  in
  let probe_ns = t_probe *. 1e9 /. float_of_int n_probe in
  let stat_ns = t_stat *. 1e9 /. float_of_int n_stat in
  Slif_obs.Counter.add "bench.a11.disabled_probe_ns" (int_of_float probe_ns);
  Slif_obs.Counter.add "bench.a11.gc_sample_ns" (int_of_float stat_ns);
  Printf.printf "disabled probe %.1f ns/op, gc sample %.0f ns/op" probe_ns stat_ns;
  (match Slif_obs.Histogram.quantiles "pool.task_run_us" with
  | Some q when q.Slif_obs.Histogram.q_p50 > 0.0 ->
      (* ~4 probe sites + 1 quick_stat per pool task *)
      let per_task_ns = (4.0 *. probe_ns) +. stat_ns in
      Printf.printf " — %.3f%% of a p50 task (%.0f us)\n"
        (per_task_ns /. 10.0 /. q.Slif_obs.Histogram.q_p50)
        q.Slif_obs.Histogram.q_p50
  | _ -> print_newline ())

(* --- A9: persistent store payoff ---------------------------------------------- *)

(* The store's claim, measured: the one-time preprocessing cost (cold
   parse+build+annotate) against a warm [--cache-dir] load of the same
   content key, against a [slif serve] answer whose graph is already
   LRU-resident (one socket round-trip, zero rebuild work). *)
let a9 () =
  section "A9: store cache — cold build vs warm load vs server LRU hit";
  let dir = Filename.temp_file "slif_bench_cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  (* One in-process daemon for the LRU column. *)
  let port = Atomic.make None in
  let on_ready = function
    | Unix.ADDR_INET (_, p) -> Atomic.set port (Some p)
    | _ -> ()
  in
  let cfg = Slif_server.Server.default_config (Slif_server.Server.Tcp 0) in
  let server = Domain.spawn (fun () -> Slif_server.Server.run ~on_ready cfg) in
  let rec wait_port () =
    match Atomic.get port with
    | Some p -> p
    | None ->
        Unix.sleepf 0.01;
        wait_port ()
  in
  let client = Slif_server.Client.connect_tcp (wait_port ()) in
  Fun.protect
    ~finally:(fun () ->
      (try
         ignore (Slif_server.Client.request_raw client {|{"op":"shutdown"}|})
       with _ -> ());
      Slif_server.Client.close client;
      Domain.join server;
      rm_rf dir)
    (fun () ->
      let reps = if bench_fast then 3 else 10 in
      let table =
        Slif_util.Table.create
          ~header:
            [ ""; "cold build (ms)"; "warm load (ms)"; "LRU hit (ms)"; "load speedup" ]
      in
      List.iter
        (fun (spec : Specs.Registry.spec) ->
          let source = spec.source in
          let t_cold =
            Slif_obs.Clock.time_n reps (fun () ->
                ignore (Slif_server.Ops.annotated source))
          in
          (* Populate the entry once, then measure pure disk loads. *)
          ignore
            (Slif_store.Cache.load_or_build ~dir ~source
               ~build:(fun () -> Slif_server.Ops.annotated source)
               ());
          let t_warm =
            Slif_obs.Clock.time_n reps (fun () ->
                match
                  Slif_store.Cache.load_or_build ~dir ~source
                    ~build:(fun () -> failwith "expected a cache hit")
                    ()
                with
                | _, `Hit -> ()
                | _, (`Miss | `Rebuilt) -> failwith "expected a cache hit")
          in
          (* Prime the daemon's LRU, then measure resident round-trips. *)
          let load_line =
            Printf.sprintf {|{"op":"load","spec":"%s"}|} spec.spec_name
          in
          ignore (Slif_server.Client.request_raw client load_line);
          let t_lru =
            Slif_obs.Clock.time_n reps (fun () ->
                ignore (Slif_server.Client.request_raw client load_line))
          in
          let us t = int_of_float (t *. 1e6) in
          Slif_obs.Counter.add
            (Printf.sprintf "bench.a9.cold_us.%s" spec.spec_name)
            (us t_cold);
          Slif_obs.Counter.add
            (Printf.sprintf "bench.a9.warm_us.%s" spec.spec_name)
            (us t_warm);
          Slif_obs.Counter.add
            (Printf.sprintf "bench.a9.lru_us.%s" spec.spec_name)
            (us t_lru);
          Slif_util.Table.add_row table
            [
              spec.spec_name;
              Printf.sprintf "%.3f" (t_cold *. 1e3);
              Printf.sprintf "%.3f" (t_warm *. 1e3);
              Printf.sprintf "%.3f" (t_lru *. 1e3);
              Printf.sprintf "%.1fx" (t_cold /. t_warm);
            ])
        Specs.Registry.all;
      Slif_util.Table.print table;
      print_endline
        "(the warm load skips parse+annotate entirely — it should beat the cold\n\
        \ build by a growing margin as specs get larger; the LRU row adds only a\n\
        \ socket round-trip on top of a hash lookup)")

(* --- A10: daemon latency quantiles + telemetry overhead ----------------------- *)

(* Two claims measured: (1) per-op daemon latency quantiles under 1/2/4
   concurrent clients — the numbers [stats]/[metrics] report, produced
   here from the client side so queueing in the single select loop is
   visible; (2) the telemetry plumbing costs nothing when it is off —
   the estimate hot path with the registry disabled, bare vs under a
   request trace context, must agree within ~2%. *)
let a10 () =
  section "A10: daemon latency quantiles and disabled-telemetry overhead";
  (* Captured by the client sweep, consumed by the flight-recorder gate
     below: what one daemon request writes into the ring, and what it
     costs end to end. *)
  let p50_c1 = ref None in
  let flight_records_per_req = ref None in
  let port = Atomic.make None in
  let on_ready = function
    | Unix.ADDR_INET (_, p) -> Atomic.set port (Some p)
    | _ -> ()
  in
  let cfg = Slif_server.Server.default_config (Slif_server.Server.Tcp 0) in
  let server = Domain.spawn (fun () -> Slif_server.Server.run ~on_ready cfg) in
  let rec wait_port () =
    match Atomic.get port with
    | Some p -> p
    | None ->
        Unix.sleepf 0.01;
        wait_port ()
  in
  let port = wait_port () in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Slif_server.Client.connect_tcp port in
         ignore (Slif_server.Client.request_raw c {|{"op":"shutdown"}|});
         Slif_server.Client.close c
       with _ -> ());
      Domain.join server)
    (fun () ->
      (* Prime the LRU so every measured request is a resident hit. *)
      let prime = Slif_server.Client.connect_tcp port in
      ignore (Slif_server.Client.request_raw prime {|{"op":"load","spec":"fuzzy"}|});
      Slif_server.Client.close prime;
      let reqs_per_client = if bench_fast then 50 else 400 in
      let line = {|{"op":"estimate","spec":"fuzzy"}|} in
      let table =
        Slif_util.Table.create
          ~header:[ "clients"; "requests"; "p50 us"; "p90 us"; "p99 us"; "max us" ]
      in
      let flight_before = Slif_obs.Flight.records_total () in
      List.iter
        (fun clients ->
          let worker () =
            let c = Slif_server.Client.connect_tcp ~timeout_ms:30_000 port in
            let lat =
              Array.init reqs_per_client (fun _ ->
                  let t0 = Slif_obs.Clock.now_us () in
                  ignore (Slif_server.Client.request_raw c line);
                  Slif_obs.Clock.now_us () -. t0)
            in
            Slif_server.Client.close c;
            lat
          in
          let doms = List.init clients (fun _ -> Domain.spawn worker) in
          let lats = List.concat_map (fun d -> Array.to_list (Domain.join d)) doms in
          let w = Slif_obs.Histogram.window ~capacity:(List.length lats) () in
          List.iter (Slif_obs.Histogram.window_record w) lats;
          match Slif_obs.Histogram.window_quantiles w with
          | None -> ()
          | Some q ->
              if clients = 1 then p50_c1 := Some q.q_p50;
              Slif_obs.Counter.add
                (Printf.sprintf "bench.a10.estimate_p50_us.c%d" clients)
                (int_of_float q.q_p50);
              Slif_obs.Counter.add
                (Printf.sprintf "bench.a10.estimate_p99_us.c%d" clients)
                (int_of_float q.q_p99);
              Slif_util.Table.add_row table
                [
                  string_of_int clients;
                  string_of_int q.q_count;
                  Printf.sprintf "%.0f" q.q_p50;
                  Printf.sprintf "%.0f" q.q_p90;
                  Printf.sprintf "%.0f" q.q_p99;
                  Printf.sprintf "%.0f" q.q_max;
                ])
        [ 1; 2; 4 ];
      flight_records_per_req :=
        Some
          (float_of_int (Slif_obs.Flight.records_total () - flight_before)
          /. float_of_int (7 * reqs_per_client));
      Slif_util.Table.print table;
      print_endline
        "(all requests hit the resident graph; the spread between 1 and 4 clients\n\
        \ is queueing in the single select loop, not rebuild work)");
  (* Overhead ablation.  The bench runs with the registry enabled, so
     switch it off for the measurement and back on before returning. *)
  let spec = Specs.Registry.find_exn "fuzzy" in
  let slif = Slif_server.Ops.annotated spec.source in
  let reps = if bench_fast then 30 else 300 in
  let run () = ignore (Slif_server.Ops.estimate_output ~bounds:false slif) in
  let best_of_3 f =
    (* The minimum over three averaged batches is the least noisy
       single-process estimate we can get without bechamel. *)
    List.fold_left min infinity
      (List.init 3 (fun _ -> Slif_obs.Clock.time_n reps f))
  in
  Slif_obs.Registry.disable ();
  ignore (Slif_obs.Clock.time_n reps run);
  let t_off = best_of_3 run in
  let t_off_traced =
    best_of_3 (fun () -> Slif_obs.Flight.with_trace "bench-a10" run)
  in
  Slif_obs.Registry.enable ();
  let t_on = best_of_3 run in
  Slif_obs.Registry.disable ();
  let pct a b = 100.0 *. ((a /. b) -. 1.0) in
  let overhead_off = pct t_off_traced t_off in
  Printf.printf
    "estimate hot path, %d reps averaged, best of 3 batches:\n\
    \  telemetry off:            %.1f us\n\
    \  telemetry off + trace id: %.1f us  (%+.2f%% — the plumbing when disabled)\n\
    \  telemetry on (spans):     %.1f us  (%+.2f%% — for reference)\n"
    reps (t_off *. 1e6) (t_off_traced *. 1e6) overhead_off (t_on *. 1e6)
    (pct t_on t_off);
  Slif_obs.Registry.enable ();
  Slif_obs.Counter.add "bench.a10.overhead_off_bp"
    (int_of_float (Float.max 0.0 (overhead_off *. 100.0)));
  print_endline
    "(the disabled-path delta should sit within ~2% — inside run-to-run noise;\n\
    \ the trace cell is only read once a span or event actually records)";
  (* Flight-recorder ablation: the black box stays on when the registry
     is off — spans still write one compact record into the per-domain
     ring.  Its true cost is nanoseconds per record, far below the
     several-percent run-to-run noise of an A/B on the estimate hot
     path, so the A/B is reported for the record but the gated number
     is composed from two measurements that each dwarf their own noise:
     the per-record cost (tight loop, best of 3 batches) times the
     records one daemon request actually writes (counted during the
     sweep above), against the sweep's 1-client p50. *)
  Slif_obs.Registry.disable ();
  let run_span () = Slif_obs.Span.with_ "bench.a10.flight" run in
  Slif_obs.Flight.disable ();
  ignore (Slif_obs.Clock.time_n reps run_span);
  let t_all_off = best_of_3 run_span in
  Slif_obs.Flight.enable ();
  ignore (Slif_obs.Clock.time_n reps run_span);
  let t_flight = best_of_3 run_span in
  Slif_obs.Registry.enable ();
  let overhead_flight = pct t_flight t_all_off in
  let cal_reps = if bench_fast then 20_000 else 200_000 in
  let cal_id = Slif_obs.Flight.next_id () in
  let record_ns =
    1e9
    *. List.fold_left min infinity
         (List.init 3 (fun _ ->
              Slif_obs.Clock.time_n cal_reps (fun () ->
                  Slif_obs.Flight.record_span ~id:cal_id ~parent:0
                    ~name:"bench.a10.flight_cal" ~t0_ns:0 ~dur_ns:0 ())))
  in
  Printf.printf
    "flight-recorder ablation (registry off in both runs):\n\
    \  flight off: %.1f us\n\
    \  flight on:  %.1f us  (%+.2f%% raw A/B — noise-dominated, not gated)\n\
    \  ring write: %.0f ns/record (tight loop, best of 3 batches)\n"
    (t_all_off *. 1e6) (t_flight *. 1e6) overhead_flight record_ns;
  Slif_obs.Counter.add "bench.a10.flight_record_ns" (int_of_float record_ns);
  let modeled =
    match (!flight_records_per_req, !p50_c1) with
    | Some rpr, Some p50 when p50 > 0.0 ->
        let pct = 100.0 *. (rpr *. record_ns) /. (p50 *. 1000.0) in
        Printf.printf
          "  daemon hot path: %.1f records/request x %.0f ns = %.2f us of p50 %.0f us \
           -> %+.2f%% always-on overhead\n"
          rpr record_ns
          (rpr *. record_ns /. 1000.0)
          p50 pct;
        Some pct
    | _ -> None
  in
  (match modeled with
  | Some pct ->
      Slif_obs.Counter.add "bench.a10.flight_overhead_bp"
        (int_of_float (Float.max 0.0 (pct *. 100.0)))
  | None -> ());
  if Sys.getenv_opt "SLIF_BENCH_FLIGHT_GATE" <> None then begin
    match modeled with
    | Some pct ->
        let ok = pct <= 2.0 in
        Printf.printf "flight gate: %+.2f%% overhead (ceiling 2.00%%): %s\n" pct
          (if ok then "OK" else "FAIL");
        if not ok then exit 1
    | None -> print_endline "flight gate: sweep produced no sample, nothing to gate"
  end

(* --- A10b: daemon load harness — closed-loop concurrency sweep -------------- *)

(* How many concurrent clients the multi-domain daemon sustains, and
   where it saturates.  The daemon runs in a forked child so the two
   processes' select loops each get the full descriptor budget
   ([Unix.select] rejects fd numbers >= 1024; one process cannot hold
   both ends of ~1000 connections).  The parent drives every
   concurrency level from a single select-multiplexed loop — C
   closed-loop connections, one outstanding request each — and reports
   sustained req/s plus client-side p50/p99 per level.  Every response
   is also checked byte-for-byte against the first one: under load the
   daemon must answer identically, not just quickly. *)

type lconn = {
  lc_fd : Unix.file_descr;
  mutable lc_off : int;  (** bytes of the request line already written *)
  lc_in : Buffer.t;
  mutable lc_t_send : float;
  mutable lc_done : int;
  mutable lc_active : bool;
}

(* select caps fd numbers below 1024; keep headroom for stdio/pipes. *)
let a10b_fd_budget = 960

let a10b_level port line per_conn clients =
  let request = line ^ "\n" in
  let conns =
    List.init clients (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.set_nonblock fd;
        {
          lc_fd = fd;
          lc_off = 0;
          lc_in = Buffer.create 512;
          lc_t_send = 0.0;
          lc_done = 0;
          lc_active = true;
        })
  in
  let total = clients * per_conn in
  let window = Slif_obs.Histogram.window ~capacity:total () in
  let completed = ref 0 in
  let expected = ref None in
  let mismatches = ref 0 in
  let t0 = Slif_obs.Clock.now_us () in
  List.iter (fun c -> c.lc_t_send <- t0) conns;
  let deadline_us = t0 +. 180.0 *. 1e6 in
  let finish c =
    c.lc_active <- false;
    try Unix.close c.lc_fd with Unix.Unix_error _ -> ()
  in
  let on_line c resp =
    let dur = Slif_obs.Clock.now_us () -. c.lc_t_send in
    Slif_obs.Histogram.window_record window dur;
    incr completed;
    (match !expected with
    | None -> expected := Some resp
    | Some e -> if resp <> e then incr mismatches);
    c.lc_done <- c.lc_done + 1;
    if c.lc_done >= per_conn then finish c
    else begin
      c.lc_off <- 0;
      c.lc_t_send <- Slif_obs.Clock.now_us ()
    end
  in
  let drain_lines c =
    let continue = ref true in
    while !continue && c.lc_active do
      let text = Buffer.contents c.lc_in in
      match String.index_opt text '\n' with
      | None -> continue := false
      | Some nl ->
          let resp = String.sub text 0 nl in
          Buffer.clear c.lc_in;
          Buffer.add_substring c.lc_in text (nl + 1) (String.length text - nl - 1);
          on_line c resp
    done
  in
  let chunk = Bytes.create 65536 in
  let timed_out = ref false in
  while !completed < total && not !timed_out do
    if Slif_obs.Clock.now_us () > deadline_us then timed_out := true
    else begin
      let live = List.filter (fun c -> c.lc_active) conns in
      let reads = List.map (fun c -> c.lc_fd) live in
      let writes =
        List.filter_map
          (fun c -> if c.lc_off < String.length request then Some c.lc_fd else None)
          live
      in
      match Unix.select reads writes [] 5.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          List.iter
            (fun c ->
              if c.lc_active && List.memq c.lc_fd writable then begin
                match
                  Unix.write_substring c.lc_fd request c.lc_off
                    (String.length request - c.lc_off)
                with
                | n -> c.lc_off <- c.lc_off + n
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
                | exception Unix.Unix_error _ -> finish c
              end;
              if c.lc_active && List.memq c.lc_fd readable then begin
                match Unix.read c.lc_fd chunk 0 (Bytes.length chunk) with
                | 0 -> finish c
                | n ->
                    Buffer.add_subbytes c.lc_in chunk 0 n;
                    drain_lines c
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
                | exception Unix.Unix_error _ -> finish c
              end)
            conns
    end
  done;
  let elapsed_s = (Slif_obs.Clock.now_us () -. t0) /. 1e6 in
  List.iter (fun c -> if c.lc_active then finish c) conns;
  let req_per_s = float_of_int !completed /. Float.max elapsed_s 1e-9 in
  (req_per_s, Slif_obs.Histogram.window_quantiles window, !completed, !mismatches,
   !timed_out)

let a10_load () =
  section "A10b: daemon load harness (closed-loop concurrency sweep)";
  let workers =
    match Sys.getenv_opt "SLIF_BENCH_LOAD_WORKERS" with
    | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 2)
    | None -> 2
  in
  let levels =
    let parse s =
      List.filter_map int_of_string_opt (String.split_on_char ',' (String.trim s))
    in
    match Sys.getenv_opt "SLIF_BENCH_LOAD_CLIENTS" with
    | Some s when parse s <> [] -> parse s
    | _ -> if bench_fast then [ 8; 16 ] else [ 64; 128; 256; 512; 1024 ]
  in
  flush stdout;
  flush stderr;
  (* The daemon runs as a spawned [slif serve] process rather than a
     fork: OCaml 5 forbids [Unix.fork] once domains exist, and earlier
     bench phases spawn them.  A separate process also gives the daemon
     its own select fd budget, independent of the client driver's. *)
  let cli =
    let candidates =
      [
        Filename.concat
          (Filename.dirname Sys.executable_name)
          (Filename.concat ".." (Filename.concat "bin" "slif_cli.exe"));
        Filename.concat "_build"
          (Filename.concat "default" (Filename.concat "bin" "slif_cli.exe"));
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> failwith "a10load: cannot find slif_cli.exe (run under dune)"
  in
  let out_r, out_w = Unix.pipe () in
  let daemon_pid =
    Unix.create_process cli
      [|
        cli; "serve"; "--port"; "0"; "--workers"; string_of_int workers;
        "--lru"; "16";
      |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let port =
    (* First stdout line: "listening on 127.0.0.1:<port>". *)
    let buf = Buffer.create 64 in
    let b = Bytes.create 1 in
    let rec banner () =
      match Unix.read out_r b 0 1 with
      | 0 -> Buffer.contents buf
      | _ ->
          if Bytes.get b 0 = '\n' then Buffer.contents buf
          else begin
            Buffer.add_char buf (Bytes.get b 0);
            banner ()
          end
    in
    let l = banner () in
    Unix.close out_r;
    match String.rindex_opt l ':' with
    | Some i ->
        int_of_string
          (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
    | None -> failwith ("a10load: unexpected daemon banner: " ^ l)
  in
  Fun.protect
        ~finally:(fun () ->
          (try
             let c = Slif_server.Client.connect_tcp ~timeout_ms:10_000 port in
             ignore (Slif_server.Client.request_raw c {|{"op":"shutdown"}|});
             Slif_server.Client.close c
           with _ -> ());
          ignore (try Unix.waitpid [] daemon_pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0)))
        (fun () ->
          (* Prime the LRU so the sweep measures serving, not rebuilds. *)
          let prime = Slif_server.Client.connect_tcp ~timeout_ms:30_000 port in
          ignore (Slif_server.Client.request_raw prime {|{"op":"load","spec":"fuzzy"}|});
          Slif_server.Client.close prime;
          Printf.printf "daemon: spawned slif serve, %d worker domains\n" workers;
          let line = {|{"op":"estimate","spec":"fuzzy"}|} in
          let per_conn_for clients =
            if bench_fast then 5 else max 5 (10_000 / clients)
          in
          let table =
            Slif_util.Table.create
              ~header:
                [ "clients"; "requests"; "req/s"; "p50 us"; "p99 us"; "max us"; "note" ]
          in
          let total_mismatches = ref 0 in
          let results =
            List.map
              (fun requested ->
                let clients = min requested a10b_fd_budget in
                let clamped = clients <> requested in
                let req_per_s, q, completed, mismatches, timed_out =
                  a10b_level port line (per_conn_for clients) clients
                in
                total_mismatches := !total_mismatches + mismatches;
                let note =
                  String.concat " "
                    ((if clamped then
                        [ Printf.sprintf "(clamped from %d: select fd ceiling)" requested ]
                      else [])
                    @ (if mismatches > 0 then
                         [ Printf.sprintf "%d MISMATCHED RESPONSES" mismatches ]
                       else [])
                    @ if timed_out then [ "TIMED OUT" ] else [])
                in
                (match q with
                | Some q ->
                    Slif_obs.Counter.add
                      (Printf.sprintf "bench.a10.load.c%d.req_per_s" clients)
                      (int_of_float req_per_s);
                    Slif_obs.Counter.add
                      (Printf.sprintf "bench.a10.load.c%d.p50_us" clients)
                      (int_of_float q.q_p50);
                    Slif_obs.Counter.add
                      (Printf.sprintf "bench.a10.load.c%d.p99_us" clients)
                      (int_of_float q.q_p99);
                    Slif_util.Table.add_row table
                      [
                        string_of_int clients;
                        string_of_int completed;
                        Printf.sprintf "%.0f" req_per_s;
                        Printf.sprintf "%.0f" q.q_p50;
                        Printf.sprintf "%.0f" q.q_p99;
                        Printf.sprintf "%.0f" q.q_max;
                        note;
                      ]
                | None ->
                    Slif_util.Table.add_row table
                      [ string_of_int clients; "0"; "-"; "-"; "-"; "-"; note ]);
                (clients, req_per_s))
              levels
          in
          Slif_util.Table.print table;
          (* Any response byte differing from the first is a correctness
             failure of the multi-worker daemon, not a perf artifact —
             fail the phase loudly (CI runs this as a smoke). *)
          if !total_mismatches > 0 then
            failwith
              (Printf.sprintf
                 "a10load: %d responses differed across the sweep — the daemon is \
                  not byte-deterministic under load"
                 !total_mismatches);
          (* The saturation point: the level with the highest sustained
             throughput — beyond it extra clients only add queueing. *)
          (match results with
          | [] -> ()
          | (c0, r0) :: rest ->
              let sat_c, sat_r =
                List.fold_left
                  (fun (bc, br) (c, r) -> if r > br then (c, r) else (bc, br))
                  (c0, r0) rest
              in
              Slif_obs.Counter.add "bench.a10.load.saturation_clients" sat_c;
              Printf.printf
                "saturation: throughput peaks at %d clients (%.0f req/s); deeper\n\
                 levels only grow p99 queueing delay\n"
                sat_c sat_r);
          (* Batch amortization: the same work as N single lines in one
             round trip. *)
          let c = Slif_server.Client.connect_tcp ~timeout_ms:30_000 port in
          let n_items = 16 in
          let rounds = if bench_fast then 3 else 20 in
          let t_single =
            Slif_obs.Clock.time_n (rounds * n_items) (fun () ->
                ignore (Slif_server.Client.request_raw c line))
          in
          let item =
            Slif_obs.Json.Obj
              [
                ("op", Slif_obs.Json.String "estimate");
                ("spec", Slif_obs.Json.String "fuzzy");
              ]
          in
          let breq =
            Slif_obs.Json.to_string
              (Slif_server.Client.batch_request (List.init n_items (fun _ -> item)))
          in
          let t_batch =
            Slif_obs.Clock.time_n rounds (fun () ->
                ignore (Slif_server.Client.request_raw c breq))
          in
          Slif_server.Client.close c;
          let single_item_us = t_single *. 1e6 in
          let batch_item_us = t_batch *. 1e6 /. float_of_int n_items in
          Slif_obs.Counter.add "bench.a10.load.single_item_us"
            (int_of_float single_item_us);
          Slif_obs.Counter.add
            (Printf.sprintf "bench.a10.load.batch%d_item_us" n_items)
            (int_of_float batch_item_us);
          Printf.printf
            "batch amortization: %.1f us/item singly vs %.1f us/item in batches of %d\n\
             (the delta is per-line framing + round-trip scheduling, amortized away)\n"
            single_item_us batch_item_us n_items)

(* --- BENCH_obs.json: machine-readable phase timings + counters -------------- *)

let bench_obs_path =
  match Sys.getenv_opt "SLIF_BENCH_OBS" with Some p -> p | None -> "BENCH_obs.json"

let write_bench_obs () =
  let prefix = "span.bench." in
  let phases =
    Slif_obs.Histogram.snapshot ()
    |> List.filter_map (fun (name, (s : Slif_obs.Histogram.summary)) ->
           if String.length name > String.length prefix
              && String.sub name 0 (String.length prefix) = prefix
           then
             let phase =
               String.sub name (String.length prefix)
                 (String.length name - String.length prefix)
             in
             (* Span durations are recorded in microseconds. *)
             Some (phase, Slif_obs.Json.Float (s.sum /. 1e6))
           else None)
  in
  let counters =
    List.map
      (fun (name, v) -> (name, Slif_obs.Json.Int v))
      (Slif_obs.Counter.snapshot ())
  in
  Slif_obs.Json.write_file bench_obs_path
    (Slif_obs.Json.Obj
       [
         ("schema", Slif_obs.Json.String "slif-bench-obs/1");
         ("phase_seconds", Slif_obs.Json.Obj phases);
         ("counters", Slif_obs.Json.Obj counters);
       ]);
  (match Sys.getenv_opt "SLIF_BENCH_TRACE" with
  | Some path -> Slif_obs.Trace.write_file path
  | None -> ());
  (* The bench history ledger: one JSON line per run, appended (and
     git-tracked), so perf regressions are visible as a diff rather
     than an archaeology project.  Headline metrics only — the full
     counter set stays in BENCH_obs.json. *)
  let history_path =
    match Sys.getenv_opt "SLIF_BENCH_HISTORY" with
    | Some p -> p
    | None -> "BENCH_history.jsonl"
  in
  let ts =
    let t = Unix.gmtime (Unix.gettimeofday ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec
  in
  let headline =
    List.filter
      (fun (name, _) ->
        String.length name > 6 && String.sub name 0 6 = "bench.")
      counters
  in
  let record =
    Slif_obs.Json.Obj
      [
        ("schema", Slif_obs.Json.String "slif-bench-history/1");
        ("ts", Slif_obs.Json.String ts);
        ("fast", Slif_obs.Json.Bool bench_fast);
        ("phase_seconds", Slif_obs.Json.Obj phases);
        ("headline", Slif_obs.Json.Obj headline);
      ]
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history_path in
  output_string oc (Slif_obs.Json.to_string record);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d phases, %d counters); appended %s\n" bench_obs_path
    (List.length phases) (List.length counters) history_path

(* --- A5: shared-hardware area (the paper's reference [1]) ------------------ *)

let a5 () =
  section "A5 (ablation): hardware sharing vs naive weight summation";
  print_endline
    "(Section 2.4.3 concedes the summed size weights over-estimate datapath-\n\
    \ heavy ASICs; the reference-[1] refinement shares functional units across\n\
    \ time-multiplexed behaviors)";
  let spec = Specs.Registry.find_exn "fuzzy" in
  let design = Vhdl.Parser.parse spec.source in
  let sem = Vhdl.Sem.build design in
  let slif = Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem) in
  let demands = Slif.Hwshare.demands ~techs:Tech.Parts.all sem in
  let table =
    Slif_util.Table.create
      ~header:[ "behaviors on the ASIC"; "naive gates"; "shared gates"; "saving%" ]
  in
  let sets =
    [
      [ "convolve" ];
      [ "convolve"; "evaluate_rule" ];
      [ "convolve"; "evaluate_rule"; "compute_centroid" ];
      [ "convolve"; "evaluate_rule"; "compute_centroid"; "smooth_output"; "clip_output" ];
    ]
  in
  List.iter
    (fun names ->
      let s = Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic ()) in
      let graph = Slif.Graph.make s in
      let part = Specsyn.Search.seed_partition s in
      List.iter
        (fun name ->
          match Slif.Types.node_by_name s name with
          | Some n -> Slif.Partition.assign_node part ~node:n.n_id (Slif.Partition.Cproc 1)
          | None -> ())
        names;
      let est = Specsyn.Search.estimator graph part in
      let naive = Slif.Estimate.size est (Slif.Partition.Cproc 1) in
      let shared = Slif.Hwshare.size est demands (Slif.Partition.Cproc 1) in
      Slif_util.Table.add_row table
        [
          string_of_int (List.length names);
          Printf.sprintf "%.0f" naive;
          Printf.sprintf "%.0f" shared;
          Printf.sprintf "%.1f" (100.0 *. (naive -. shared) /. naive);
        ])
    sets;
  Slif_util.Table.print table;
  print_endline
    "(the saving grows with the number of co-resident datapath behaviors, as\n\
    \ the paper predicts; a single behavior shares nothing)"

(* --- A12: million-node synthetic graphs ------------------------------------ *)

(* The bundled specifications top out at a few thousand nodes; A12 runs
   the whole pipeline — generate, compact graph build, estimation,
   incremental engine moves, store serialization, lazy open and decode — on
   synthetic graphs up to 10^6 nodes and records per-node figures.  The
   CDFG/ADD comparators cannot consume a synthetic SLIF (they parse
   VHDL), so their density measured on the bundled corpus is reported as
   the projection baseline. *)
let a12 () =
  section "A12 (scale): struct-of-arrays estimation on synthetic million-node graphs";
  let sizes = if bench_fast then [ 10_000; 100_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  (* Comparator density on the bundled corpus: objects (nodes + edges)
     per SLIF node, the ratio the projection line below applies. *)
  let slif_objs = ref 0 and cdfg_objs = ref 0 and add_objs = ref 0 in
  List.iter
    (fun (spec : Specs.Registry.spec) ->
      let design = Vhdl.Parser.parse spec.source in
      let sem = Vhdl.Sem.build design in
      let slif = Slif.Build.build sem in
      let stats = Slif.Stats.of_slif slif in
      slif_objs := !slif_objs + stats.Slif.Stats.bv + stats.Slif.Stats.channels;
      let cdfg = Cdfg.Graph.of_design design in
      cdfg_objs := !cdfg_objs + Cdfg.Graph.node_count cdfg + Cdfg.Graph.edge_count cdfg;
      let add = Addfmt.Add.of_design design in
      add_objs := !add_objs + Addfmt.Add.node_count add + Addfmt.Add.edge_count add)
    Specs.Registry.all;
  let cdfg_ratio = float_of_int !cdfg_objs /. float_of_int !slif_objs in
  let add_ratio = float_of_int !add_objs /. float_of_int !slif_objs in
  Printf.printf
    "comparator density (bundled corpus): CDFG %.1fx, ADD %.1fx the SLIF-AG object count\n"
    cdfg_ratio add_ratio;
  let table =
    Slif_util.Table.create
      ~header:
        [ "nodes"; "gen(s)"; "graph(s)"; "est us/node"; "moves/s"; "q/move"; "words/move";
          "v1 B/node"; "v2 B/node"; "lazy open(ms)"; "decode(ms)"; "engine(ms)" ]
  in
  (* Estimate queries per move, by size: exact counts, so the scaling
     gate below cannot flake on a noisy machine. *)
  let queries = ref [] in
  List.iter
    (fun n ->
      let p = Slif_synth.Synth.default_params ~seed:7 ~nodes:n Slif_synth.Synth.Mixed in
      let slif, t_gen =
        Slif_obs.Clock.time (fun () ->
            Slif_util.Pool.with_pool (fun pool -> Slif_synth.Synth.generate ~pool p))
      in
      let graph, t_graph = Slif_obs.Clock.time (fun () -> Slif.Graph.make slif) in
      let part = Specsyn.Search.seed_partition slif in
      let est = Specsyn.Search.estimator graph part in
      let (), t_est =
        Slif_obs.Clock.time (fun () ->
            Array.iter
              (fun (nd : Slif.Types.node) ->
                if Slif.Types.is_process nd then
                  ignore (Slif.Estimate.exectime_us est nd.n_id))
              slif.Slif.Types.nodes)
      in
      let est_us_per_node = t_est *. 1e6 /. float_of_int n in
      (* Exploration proxy at scale: incremental engine move throughput
         (a full greedy sweep is quadratic and would dominate the run).
         Like a search, and like slifbench, 3 of 4 moves are rolled back. *)
      let engine, t_engine = Slif_obs.Clock.time (fun () -> Specsyn.Engine.create graph part) in
      let engine_est = Specsyn.Engine.estimate engine in
      let rng = Slif_util.Prng.create 42 in
      let commit_rng = Slif_util.Prng.create 43 in
      let n_moves = if bench_fast then 200 else 2_000 in
      let applied = ref 0 in
      let q0 = Slif.Estimate.stats_queries engine_est in
      let w0 = Gc.minor_words () in
      let (), t_moves =
        Slif_obs.Clock.time (fun () ->
            for _ = 1 to n_moves do
              match Specsyn.Engine.random_move engine rng with
              | Some m ->
                  ignore (Specsyn.Engine.propose engine m);
                  if Slif_util.Prng.int commit_rng 4 = 0 then Specsyn.Engine.commit engine
                  else Specsyn.Engine.rollback engine;
                  incr applied
              | None -> ()
            done)
      in
      let moves_per_s =
        if t_moves > 0.0 then float_of_int !applied /. t_moves else 0.0
      in
      let words_per_move = (Gc.minor_words () -. w0) /. float_of_int (max 1 !applied) in
      let queries_per_move =
        (Slif.Estimate.stats_queries engine_est - q0) / max 1 !applied
      in
      queries := (n, queries_per_move) :: !queries;
      (* The maintained cost must be the oracle's on a fresh estimator,
         bit for bit. *)
      let oracle =
        Specsyn.Cost.total ~constraints:Specsyn.Cost.no_constraints
          (Specsyn.Search.estimator graph (Specsyn.Engine.partition engine))
      in
      if Int64.bits_of_float oracle <> Int64.bits_of_float (Specsyn.Engine.cost engine) then
        failwith
          (Printf.sprintf "a12: engine cost %h differs from the oracle's %h at %d nodes"
             (Specsyn.Engine.cost engine) oracle n);
      let v1 = Slif_store.Store.slif_to_string slif in
      let v2 = Slif_store.Store.slif_to_string ~version:2 slif in
      let v1_bpn = float_of_int (String.length v1) /. float_of_int n in
      let v2_bpn = float_of_int (String.length v2) /. float_of_int n in
      (* The daemon's admission path: open the container, answer metadata
         without decoding a single graph section; then force the decode a
         cache miss pays, which must give back the generated graph. *)
      let path = Filename.temp_file "slif_a12" ".slifstore" in
      Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      @@ fun () ->
      Slif_store.Store.save_slif ~path ~version:2 slif;
      let decodes_before = Slif_obs.Counter.get "store.lazy.full_decode" in
      let handle, t_open =
        Slif_obs.Clock.time (fun () ->
            match Slif_store.Lazy_store.open_file path with
            | Ok h -> h
            | Error err -> failwith (Slif_store.Store.error_message err))
      in
      if (Slif_store.Lazy_store.meta handle).Slif_store.Store.vm_nodes <> n then
        failwith "a12: META node count mismatch";
      if Slif_obs.Counter.get "store.lazy.full_decode" <> decodes_before then
        failwith "a12: metadata-only open forced a full decode";
      let decoded, t_decode =
        Slif_obs.Clock.time (fun () ->
            match Slif_store.Lazy_store.slif handle with
            | Ok (d, _) -> d
            | Error err -> failwith (Slif_store.Store.error_message err))
      in
      if not (Slif.Types.equal slif decoded) then
        failwith "a12: the decoded store differs from the generated graph";
      let tag v = Printf.sprintf "bench.a12.n%d.%s" n v in
      Slif_obs.Counter.add (tag "gen_ms") (int_of_float (t_gen *. 1e3));
      Slif_obs.Counter.add (tag "graph_ms") (int_of_float (t_graph *. 1e3));
      Slif_obs.Counter.add (tag "est_ns_per_node") (int_of_float (est_us_per_node *. 1e3));
      Slif_obs.Counter.add (tag "moves_per_s") (int_of_float moves_per_s);
      Slif_obs.Counter.add (tag "queries_per_move") queries_per_move;
      Slif_obs.Counter.add (tag "words_per_move") (int_of_float words_per_move);
      Slif_obs.Counter.add (tag "v1_bytes_per_node") (int_of_float v1_bpn);
      Slif_obs.Counter.add (tag "v2_bytes_per_node") (int_of_float v2_bpn);
      Slif_obs.Counter.add (tag "lazy_open_us") (int_of_float (t_open *. 1e6));
      Slif_obs.Counter.add (tag "decode_ms") (int_of_float (t_decode *. 1e3));
      Slif_obs.Counter.add (tag "engine_create_ms") (int_of_float (t_engine *. 1e3));
      Slif_util.Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.3f" t_gen;
          Printf.sprintf "%.3f" t_graph;
          Printf.sprintf "%.3f" est_us_per_node;
          Printf.sprintf "%.0f" moves_per_s;
          string_of_int queries_per_move;
          Printf.sprintf "%.0f" words_per_move;
          Printf.sprintf "%.1f" v1_bpn;
          Printf.sprintf "%.1f" v2_bpn;
          Printf.sprintf "%.2f" (t_open *. 1e3);
          Printf.sprintf "%.0f" (t_decode *. 1e3);
          Printf.sprintf "%.0f" (t_engine *. 1e3);
        ])
    sizes;
  Slif_util.Table.print table;
  (* The scale-free gate: a move's estimate work follows its dirty slice,
     not the graph, so queries per move at the largest size stay within
     2x of the smallest size's. *)
  (match (!queries, List.rev !queries) with
  | (n_big, q_big) :: _, (n_small, q_small) :: _ when q_big > 2 * max 1 q_small ->
      failwith
        (Printf.sprintf "a12: %d estimate queries per move at %d nodes, over 2x the %d at %d"
           q_big n_big q_small n_small)
  | _ -> ());
  Printf.printf
    "(projection: at the largest size a CDFG would carry ~%.1fx and an ADD ~%.1fx\n\
    \ as many objects as the SLIF-AG, at the density measured on the bundled corpus)\n"
    cdfg_ratio add_ratio

let () =
  print_endline "SLIF reproduction benchmark harness";
  print_endline "(see DESIGN.md section 3 for the experiment index)";
  (* SLIF_BENCH_TRACE exports the whole run from the span rings: size
     them for every phase before the first one runs. *)
  if Sys.getenv_opt "SLIF_BENCH_TRACE" <> None then Slif_obs.Flight.set_capacity 200_000;
  Slif_obs.Registry.enable ();
  (* SLIF_BENCH_ONLY=a8,r4 restricts the run to the named phases (the CI
     bench smoke step runs SLIF_BENCH_ONLY=a8 SLIF_BENCH_FAST=1). *)
  let only =
    Option.map
      (fun s -> List.map String.trim (String.split_on_char ',' s))
      (Sys.getenv_opt "SLIF_BENCH_ONLY")
  in
  let phase name f =
    match only with
    | Some names when not (List.mem name names) -> ()
    | _ -> Slif_obs.Span.with_ ("bench." ^ name) f
  in
  phase "figure4" figure4;
  phase "r1_r2" r1_r2;
  phase "r3" r3;
  phase "r4" r4;
  phase "a1" a1;
  phase "a2" a2;
  phase "a3" a3;
  phase "a4" a4;
  phase "a5" a5;
  phase "a6" a6;
  phase "a7" a7;
  phase "a8" a8;
  phase "a9" a9;
  phase "a10" a10;
  phase "a10load" a10_load;
  phase "a11" a11;
  phase "a12" a12;
  write_bench_obs ();
  print_endline "\ndone."
