(* Parallel == serial differential layer.

   Every pool-driven sweep (explore, pareto, annealing restarts, random
   restarts) must be bit-identical to its serial run: same entry order,
   same costs, same evaluation counts, same partitions.  The pool itself
   is exercised for submission-order merging, deterministic failure and
   per-task PRNG streams, and the observability registry is stress-tested
   from eight concurrent domains. *)

module Obs = Slif_obs
module Pool = Slif_util.Pool
module Prng = Slif_util.Prng

let jobs_par = 4

(* --- Pool primitives ---------------------------------------------------- *)

let test_pool_map_order () =
  let tasks = List.init 100 Fun.id in
  let expect = List.map (fun x -> x * x) tasks in
  Pool.with_pool ~jobs:jobs_par (fun pool ->
      Alcotest.(check (list int))
        "submission order" expect
        (Pool.map pool (fun x -> x * x) tasks))

let test_pool_single_job () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
      Alcotest.(check (list int)) "serial pool" [ 2; 4; 6 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_pool_rejects_bad_jobs () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0 ()))

let test_pool_exception_deterministic () =
  (* Several tasks fail; the lowest submission index must win no matter
     which domain reaches its failure first. *)
  Pool.with_pool ~jobs:jobs_par (fun pool ->
      Alcotest.check_raises "lowest failing index" (Failure "task 1") (fun () ->
          ignore
            (Pool.map pool
               (fun i -> if i mod 3 = 1 then failwith (Printf.sprintf "task %d" i) else i)
               (List.init 20 Fun.id))))

let test_pool_map_seeded_jobs_invariant () =
  let draws pool =
    Pool.map_seeded pool ~seed:42
      (fun rng _ -> List.init 5 (fun _ -> Prng.int rng 1_000_000))
      (List.init 16 Fun.id)
  in
  let serial = Pool.with_pool ~jobs:1 draws in
  let parallel = Pool.with_pool ~jobs:jobs_par draws in
  Alcotest.(check (list (list int))) "per-task streams jobs-invariant" serial parallel

let test_prng_derive_streams () =
  let take n rng = List.init n (fun _ -> Prng.int rng 1_000_000) in
  let s0 = take 20 (Prng.derive ~root:7 0) in
  let s0' = take 20 (Prng.derive ~root:7 0) in
  let s1 = take 20 (Prng.derive ~root:7 1) in
  Alcotest.(check (list int)) "derive is deterministic" s0 s0';
  Alcotest.(check bool) "streams differ" true (s0 <> s1);
  (* Guards against the naive [base + i*gamma] derivation, where stream
     i+1 is stream i advanced by one draw. *)
  Alcotest.(check bool) "stream 1 is not stream 0 shifted" true
    (List.tl s0 <> List.filteri (fun i _ -> i < 19) s1);
  Alcotest.check_raises "negative index" (Invalid_argument "Prng.derive: negative index")
    (fun () -> ignore (Prng.derive ~root:7 (-1)))

(* --- Explore differential ----------------------------------------------- *)

let light_algos =
  [
    Specsyn.Explore.Random 20;
    Specsyn.Explore.Greedy;
    Specsyn.Explore.Annealing { Specsyn.Annealing.default_params with steps = 200 };
  ]

let check_entries label (a : Specsyn.Explore.entry list) (b : Specsyn.Explore.entry list) =
  Alcotest.(check int) (label ^ ": entry count") (List.length a) (List.length b);
  List.iter2
    (fun (x : Specsyn.Explore.entry) (y : Specsyn.Explore.entry) ->
      Alcotest.(check string)
        (label ^ ": alloc")
        x.alloc.Specsyn.Alloc.alloc_name y.alloc.Specsyn.Alloc.alloc_name;
      Alcotest.(check string)
        (label ^ ": algo")
        (Specsyn.Explore.algo_name x.algo)
        (Specsyn.Explore.algo_name y.algo);
      Alcotest.(check (float 1e-9))
        (label ^ ": cost") x.solution.Specsyn.Search.cost y.solution.Specsyn.Search.cost;
      Alcotest.(check int)
        (label ^ ": evaluated") x.solution.Specsyn.Search.evaluated
        y.solution.Specsyn.Search.evaluated)
    a b

let explore_differential label ?(algos = light_algos) ~allocs slif =
  let serial = Specsyn.Explore.run ~jobs:1 ~algos ~allocs slif in
  let parallel = Specsyn.Explore.run ~jobs:jobs_par ~algos ~allocs slif in
  check_entries label serial parallel;
  (* The timing-free report must be byte-identical — what the CLI's
     [-j N --no-timings] differential relies on — and stay so at the
     finest restart slicing (one restart per pool task). *)
  let report = Specsyn.Report.explore_report ~timings:false in
  Alcotest.(check string) (label ^ ": report bytes") (report serial) (report parallel);
  Alcotest.(check string)
    (label ^ ": chunk-1 report bytes")
    (report serial)
    (report (Specsyn.Explore.run ~jobs:jobs_par ~chunk:1 ~algos ~allocs slif))

let test_explore_bundled () =
  let allocs = [ Specsyn.Alloc.proc_asic (); Specsyn.Alloc.proc_asic_mem () ] in
  List.iter
    (fun (name, slif) -> explore_differential name ~allocs (Lazy.force slif))
    [ ("fuzzy", Helpers.fuzzy_slif); ("tiny", Helpers.tiny_slif) ]

(* Fuzzed designs only carry weights for the generator's own techs
   (tp/ta/tm), so they are explored under an identity allocation built
   from their own component arrays. *)
let identity_alloc (s : Slif.Types.t) =
  {
    Specsyn.Alloc.alloc_name = "generated";
    procs = Array.to_list s.Slif.Types.procs;
    mems = Array.to_list s.Slif.Types.mems;
    buses = Array.to_list s.Slif.Types.buses;
  }

let fuzz_algos =
  [
    Specsyn.Explore.Random 10;
    Specsyn.Explore.Greedy;
    Specsyn.Explore.Annealing { Specsyn.Annealing.default_params with steps = 120 };
  ]

let explore_differential_seed seed =
  let g = Test_props.gen_slif_of_seed seed in
  let s = g.Test_props.slif in
  explore_differential
    (Printf.sprintf "gen%d" seed)
    ~algos:fuzz_algos
    ~allocs:[ identity_alloc s ]
    s

let test_explore_fuzzed () =
  Helpers.replay_corpus "parallel_explore" explore_differential_seed;
  for seed = 0 to 19 do
    explore_differential_seed seed
  done

(* --- Chunked-merge determinism ------------------------------------------- *)

(* The chunk size only reshapes work units; the merged entry list and
   the timing-free report must be byte-identical at every extreme —
   one restart per task, everything in one task, and the heuristic. *)
let test_explore_chunk_differential () =
  let allocs = [ Specsyn.Alloc.proc_asic () ] in
  let slif = Lazy.force Helpers.fuzzy_slif in
  let sweep ?chunk jobs =
    Specsyn.Report.explore_report ~timings:false
      (Specsyn.Explore.run ~jobs ?chunk ~algos:light_algos ~allocs slif)
  in
  let reference = sweep 1 in
  List.iter
    (fun (label, report) -> Alcotest.(check string) label reference report)
    [
      ("chunk 1, serial", sweep ~chunk:1 1);
      ("chunk 1, parallel", sweep ~chunk:1 jobs_par);
      ("chunk 64, parallel", sweep ~chunk:64 jobs_par);
      ("heuristic chunk, parallel", sweep jobs_par);
    ]

(* --- Pool domain cap and chunk helpers ------------------------------------ *)

let test_pool_domain_cap () =
  let cap = max 1 (Domain.recommended_domain_count ()) in
  Pool.with_pool ~jobs:8 (fun pool ->
      Alcotest.(check int) "jobs is as requested" 8 (Pool.jobs pool);
      Alcotest.(check int) "domains capped to hardware" (min 8 cap) (Pool.domains pool));
  Pool.with_pool ~jobs:8 ~oversubscribe:true (fun pool ->
      Alcotest.(check int) "oversubscribe bypasses the cap" 8 (Pool.domains pool))

let test_pool_chunks () =
  Alcotest.check_raises "chunk 0" (Invalid_argument "Pool.chunks: chunk must be >= 1")
    (fun () -> ignore (Pool.chunks ~chunk:0 5));
  Alcotest.(check (list (pair int int))) "empty range" [] (Pool.chunks ~chunk:4 0);
  Alcotest.(check (list (pair int int)))
    "exact split" [ (0, 3); (3, 3) ] (Pool.chunks ~chunk:3 6);
  Alcotest.(check (list (pair int int)))
    "ragged tail" [ (0, 4); (4, 4); (8, 2) ] (Pool.chunks ~chunk:4 10);
  (* Contiguous full cover, whatever the chunk size. *)
  List.iter
    (fun chunk ->
      let pieces = Pool.chunks ~chunk 37 in
      let covered = List.fold_left (fun acc (_, len) -> acc + len) 0 pieces in
      Alcotest.(check int) "covers every index" 37 covered;
      ignore
        (List.fold_left
           (fun expect (start, len) ->
             Alcotest.(check int) "contiguous" expect start;
             start + len)
           0 pieces))
    [ 1; 2; 5; 36; 37; 64 ];
  (* The heuristic depends only on (n, requested jobs) — never on the
     machine — and clamps to [1, 64]. *)
  Alcotest.(check int) "empty work" 1 (Pool.default_chunk ~jobs:4 0);
  Alcotest.(check int) "tiny work" 1 (Pool.default_chunk ~jobs:4 3);
  Alcotest.(check int) "four chunks per job" 5 (Pool.default_chunk ~jobs:2 40);
  Alcotest.(check int) "clamped to 64" 64 (Pool.default_chunk ~jobs:1 10_000);
  Alcotest.check_raises "jobs 0"
    (Invalid_argument "Pool.default_chunk: jobs must be >= 1") (fun () ->
      ignore (Pool.default_chunk ~jobs:0 10))

(* --- Domain-local slot lifecycle ------------------------------------------ *)

(* Init runs lazily on the domain that uses the slot (at most once per
   domain), every initialized slot is torn down exactly once by pool
   shutdown, and each [get] returns the calling domain's own value. *)
let test_pool_local_lifecycle () =
  let inits = Atomic.make 0 and teardowns = Atomic.make 0 in
  let foreign_teardowns = Atomic.make 0 in
  Pool.with_pool ~jobs:4 ~oversubscribe:true (fun pool ->
      let slot =
        Pool.local pool
          ~teardown:(fun dom ->
            Atomic.incr teardowns;
            if dom <> (Domain.self () :> int) then Atomic.incr foreign_teardowns)
          (fun () ->
            Atomic.incr inits;
            (Domain.self () :> int))
      in
      (* Alcotest's output path is not domain-safe: tasks only report
         (their domain, the slot they saw), the submitting domain asserts. *)
      let pairs =
        Pool.map pool
          (fun _ -> ((Domain.self () :> int), Pool.get slot))
          (List.init 64 Fun.id)
      in
      List.iter
        (fun (dom, v) -> Alcotest.(check int) "slot belongs to this domain" dom v)
        pairs;
      let distinct = List.length (List.sort_uniq compare (List.map fst pairs)) in
      Alcotest.(check int) "one init per participating domain" distinct
        (Atomic.get inits));
  Alcotest.(check int) "no teardown on a foreign domain" 0 (Atomic.get foreign_teardowns);
  Alcotest.(check int) "every initialized slot torn down" (Atomic.get inits)
    (Atomic.get teardowns)

let test_pool_local_init_raises () =
  (* A raising init stores nothing: it surfaces as the task's failure
     (lowest submission index wins, like any task exception) and the
     pool still shuts down cleanly. *)
  Pool.with_pool ~jobs:2 ~oversubscribe:true (fun pool ->
      let slot = Pool.local pool (fun () -> failwith "init boom") in
      Alcotest.check_raises "init failure surfaces" (Failure "init boom") (fun () ->
          ignore (Pool.map pool (fun _ -> ignore (Pool.get slot)) [ 1; 2; 3 ]));
      Alcotest.(check (list int)) "pool still works" [ 10 ]
        (Pool.map pool (fun x -> 10 * x) [ 1 ]))

let test_pool_local_teardown_raises () =
  (* A raising teardown must not wedge the joins; the first failure is
     re-raised from [shutdown] after every worker has exited. *)
  let torn = Atomic.make 0 in
  let pool = Pool.create ~jobs:3 ~oversubscribe:true () in
  let slot =
    Pool.local pool
      ~teardown:(fun _ ->
        Atomic.incr torn;
        failwith "teardown boom")
      (fun () -> (Domain.self () :> int))
  in
  let inits =
    List.length
      (List.sort_uniq compare (Pool.map pool (fun _ -> Pool.get slot) (List.init 32 Fun.id)))
  in
  Alcotest.check_raises "shutdown re-raises the teardown failure"
    (Failure "teardown boom") (fun () -> Pool.shutdown pool);
  Alcotest.(check int) "every slot's teardown still ran" inits (Atomic.get torn)

(* --- Partition-level comparison ------------------------------------------ *)

let check_same_partition label a b =
  let s = Slif.Partition.slif a in
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: node %d" label i)
        true
        (Slif.Partition.comp_of a i = Slif.Partition.comp_of b i))
    s.Slif.Types.nodes;
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: chan %d" label i)
        true
        (Slif.Partition.bus_of a i = Slif.Partition.bus_of b i))
    s.Slif.Types.chans

let fuzzy_problem =
  lazy
    (let s =
       Specsyn.Alloc.apply (Lazy.force Helpers.fuzzy_slif) (Specsyn.Alloc.proc_asic ())
     in
     Specsyn.Search.problem (Slif.Graph.make s))

(* --- Pareto differential ------------------------------------------------- *)

let test_pareto_differential () =
  let s =
    Specsyn.Alloc.apply (Lazy.force Helpers.fuzzy_slif) (Specsyn.Alloc.proc_asic ())
  in
  let graph = Slif.Graph.make s in
  let sweep jobs = Specsyn.Pareto.sweep ~jobs ~steps_per_point:150 graph in
  let a = sweep 1 and b = sweep jobs_par in
  Alcotest.(check int) "front size" (List.length a) (List.length b);
  List.iter2
    (fun (x : Specsyn.Pareto.point) (y : Specsyn.Pareto.point) ->
      Alcotest.(check (float 1e-9)) "worst exectime" x.worst_exectime_us y.worst_exectime_us;
      Alcotest.(check (float 1e-9)) "hw gates" x.hw_gates y.hw_gates;
      Alcotest.(check (float 1e-9)) "sw bytes" x.sw_bytes y.sw_bytes;
      Alcotest.(check (float 1e-9)) "weight" x.weight_time y.weight_time;
      check_same_partition "pareto point" x.part y.part)
    a b

(* --- Multi-restart searches ---------------------------------------------- *)

let test_annealing_restarts_differential () =
  let problem = Lazy.force fuzzy_problem in
  let params = { Specsyn.Annealing.default_params with steps = 150 } in
  let serial = Specsyn.Annealing.run ~restarts:4 ~params problem in
  let parallel =
    Pool.with_pool ~jobs:jobs_par (fun pool ->
        Specsyn.Annealing.run ~pool ~restarts:4 ~params problem)
  in
  Alcotest.(check (float 1e-9))
    "cost" serial.Specsyn.Search.cost parallel.Specsyn.Search.cost;
  Alcotest.(check int)
    "evaluated" serial.Specsyn.Search.evaluated parallel.Specsyn.Search.evaluated;
  check_same_partition "annealing best" serial.Specsyn.Search.part
    parallel.Specsyn.Search.part

let test_random_part_differential () =
  let problem = Lazy.force fuzzy_problem in
  let serial = Specsyn.Random_part.run ~seed:5 ~restarts:32 problem in
  let parallel =
    Pool.with_pool ~jobs:jobs_par (fun pool ->
        Specsyn.Random_part.run ~pool ~seed:5 ~restarts:32 problem)
  in
  Alcotest.(check (float 1e-9))
    "cost" serial.Specsyn.Search.cost parallel.Specsyn.Search.cost;
  Alcotest.(check int)
    "evaluated" serial.Specsyn.Search.evaluated parallel.Specsyn.Search.evaluated;
  check_same_partition "random best" serial.Specsyn.Search.part
    parallel.Specsyn.Search.part

(* --- Chunk and jobs invariance of the restart sweeps ------------------------ *)

let check_same_bits label a b =
  Alcotest.(check int64) label (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every restart sweep goes through one chunk driver and one winner
   fold, so neither the chunk size nor the job count may show: same cost
   bits, same [evaluated], same partitions for chunk 1, 3 and the whole
   range, each at one job and at [jobs_par]. *)
let test_restart_sweeps_chunk_invariant () =
  let tie a b = Specsyn.Search.best [ a; b ] in
  let fuzzy = Lazy.force fuzzy_problem in
  let part = Specsyn.Search.seed_partition (Slif.Graph.slif fuzzy.Specsyn.Search.graph) in
  let early = { Specsyn.Search.part; cost = 2.0; evaluated = 3 } in
  let late = { early with part = Slif.Partition.copy part; evaluated = 4 } in
  let won = tie early late in
  Alcotest.(check bool) "tie keeps the earlier solution" true (won.part == early.part);
  Alcotest.(check int) "tie sums evaluated" 7 won.evaluated;
  Alcotest.check_raises "explore rejects chunk 0"
    (Invalid_argument "Explore.run: chunk must be >= 1") (fun () ->
      ignore (Specsyn.Explore.run ~chunk:0 (Lazy.force Helpers.fuzzy_slif)));
  let configs n =
    List.concat_map (fun chunk -> [ (chunk, 1); (chunk, jobs_par) ]) [ 1; 3; n ]
  in
  let check_solutions label n run =
    let reference = run None None in
    List.iter
      (fun (chunk, jobs) ->
        let label = Printf.sprintf "%s chunk %d jobs %d" label chunk jobs in
        let sol = Pool.with_pool ~jobs (fun pool -> run (Some pool) (Some chunk)) in
        check_same_bits (label ^ ": cost") reference.Specsyn.Search.cost sol.cost;
        Alcotest.(check int) (label ^ ": evaluated") reference.evaluated sol.evaluated;
        check_same_partition label reference.part sol.part)
      (configs n)
  in
  check_solutions "random" 32 (fun pool chunk ->
      Specsyn.Random_part.run ?pool ?chunk ~seed:5 ~restarts:32 fuzzy);
  let params = { Specsyn.Annealing.default_params with steps = 150 } in
  check_solutions "annealing" 5 (fun pool chunk ->
      Specsyn.Annealing.run ?pool ?chunk ~restarts:5 ~params fuzzy);
  let graph = fuzzy.Specsyn.Search.graph in
  let weights_time = [ 0.1; 0.3; 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let sweep ?jobs ?chunk () =
    Specsyn.Pareto.sweep ?jobs ?chunk ~weights_time ~steps_per_point:150 graph
  in
  let reference = sweep () in
  List.iter
    (fun (chunk, jobs) ->
      let label = Printf.sprintf "pareto chunk %d jobs %d" chunk jobs in
      let front = sweep ~jobs ~chunk () in
      Alcotest.(check int) (label ^ ": front size") (List.length reference)
        (List.length front);
      List.iter2
        (fun (x : Specsyn.Pareto.point) (y : Specsyn.Pareto.point) ->
          check_same_bits (label ^ ": worst exectime") x.worst_exectime_us
            y.worst_exectime_us;
          check_same_bits (label ^ ": hw gates") x.hw_gates y.hw_gates;
          check_same_bits (label ^ ": sw bytes") x.sw_bytes y.sw_bytes;
          check_same_bits (label ^ ": weight") x.weight_time y.weight_time;
          check_same_partition label x.part y.part)
        reference front)
    (configs (List.length weights_time))

(* --- Engine.acquire bit-exactness ----------------------------------------- *)

(* The share-nothing refactor rides entirely on [Engine.acquire]
   rescoring bitwise like [Engine.create]: one replica re-acquired per
   restart must pick the same winner, at the same cost bits, as a fresh
   engine per restart. *)
let test_engine_acquire_bit_exact () =
  let problem = Lazy.force fuzzy_problem in
  let part = Specsyn.Search.seed_partition (Slif.Graph.slif problem.Specsyn.Search.graph) in
  let replica = Specsyn.Engine.of_problem problem part in
  (* Dirty the replica first, so acquire is rescoring from a genuinely
     stale state, not from the partition it was created on. *)
  let rng = Prng.create 3 in
  for _ = 1 to 10 do
    match Specsyn.Engine.random_move replica rng with
    | None -> ()
    | Some m ->
        ignore (Specsyn.Engine.propose replica m);
        Specsyn.Engine.commit replica
  done;
  List.iter
    (fun seed ->
      let fresh = Specsyn.Random_part.run_range ~seed ~start:0 ~len:16 problem in
      let reacquired =
        Specsyn.Random_part.run_range ~replica ~seed ~start:0 ~len:16 problem
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: same cost bits" seed)
        0
        (Int64.compare
           (Int64.bits_of_float fresh.Specsyn.Search.cost)
           (Int64.bits_of_float reacquired.Specsyn.Search.cost));
      check_same_partition
        (Printf.sprintf "seed %d: same winner" seed)
        fresh.Specsyn.Search.part reacquired.Specsyn.Search.part)
    [ 1; 2; 7 ]

(* --- Per-domain memo isolation -------------------------------------------- *)

(* Two domains hammer their own replicas (private estimate memo, private
   aggregates) concurrently; each must observe exactly the cost sequence
   a serial run of the same move stream observes.  Any cross-domain
   write to memo or aggregate state shows up as a diverging cost. *)
let test_memo_isolation_across_domains () =
  let problem = Lazy.force fuzzy_problem in
  let walk dom =
    (* A private seed partition per walk: the engine mutates it as it
       commits moves, so sharing one would break determinism on its
       own, independent of memo state. *)
    let part =
      Specsyn.Search.seed_partition (Slif.Graph.slif problem.Specsyn.Search.graph)
    in
    let eng = Specsyn.Engine.of_problem problem part in
    let rng = Prng.derive ~root:11 dom in
    let costs = ref [ Specsyn.Engine.cost eng ] in
    for _ = 1 to 60 do
      (match Specsyn.Engine.random_move eng rng with
      | None -> ()
      | Some m ->
          ignore (Specsyn.Engine.propose eng m);
          Specsyn.Engine.commit eng);
      costs := Specsyn.Engine.cost eng :: !costs
    done;
    List.rev !costs
  in
  let serial = List.map walk [ 0; 1 ] in
  let spawned = List.map (fun d -> Domain.spawn (fun () -> walk d)) [ 0; 1 ] in
  let concurrent = List.map Domain.join spawned in
  List.iteri
    (fun d (s, c) ->
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "domain %d cost walk" d)
        s c)
    (List.combine serial concurrent)

(* --- Observability under domain contention -------------------------------- *)

let test_obs_stress () =
  Obs.Registry.reset ();
  Obs.Registry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Registry.disable ();
      Obs.Registry.reset ())
  @@ fun () ->
  let domains = 8 and ops = 100_000 in
  let span_every = 100 in
  let body () =
    for i = 1 to ops do
      Obs.Counter.incr "stress.ops";
      if i mod span_every = 0 then
        Obs.Span.with_ "stress.tick" (fun () -> Obs.Counter.add "stress.bytes" 3)
    done
  in
  let spawned = List.init domains (fun _ -> Domain.spawn body) in
  List.iter Domain.join spawned;
  let spans_per_domain = ops / span_every in
  Alcotest.(check int) "counter merges all domains" (domains * ops)
    (Obs.Counter.get "stress.ops");
  Alcotest.(check int) "add merges all domains"
    (domains * spans_per_domain * 3)
    (Obs.Counter.get "stress.bytes");
  (match Obs.Histogram.summary "span.stress.tick" with
  | None -> Alcotest.fail "span histogram missing"
  | Some s ->
      Alcotest.(check int) "span count" (domains * spans_per_domain) s.Obs.Histogram.count);
  let events =
    List.filter (fun (r : Obs.Flight.record) -> r.fr_name = "stress.tick") (Obs.Flight.snapshot ())
  in
  Alcotest.(check int) "event count" (domains * spans_per_domain) (List.length events);
  Alcotest.(check int) "no ring dropped a span" 0 (Obs.Flight.dropped_total ());
  let doms =
    List.sort_uniq compare (List.map (fun (r : Obs.Flight.record) -> r.fr_dom) events)
  in
  Alcotest.(check int) "one lane per domain" domains (List.length doms)

let suite =
  [
    Alcotest.test_case "pool map preserves submission order" `Quick test_pool_map_order;
    Alcotest.test_case "pool of one job runs inline" `Quick test_pool_single_job;
    Alcotest.test_case "pool rejects jobs < 1" `Quick test_pool_rejects_bad_jobs;
    Alcotest.test_case "pool failure is deterministic" `Quick
      test_pool_exception_deterministic;
    Alcotest.test_case "map_seeded streams are jobs-invariant" `Quick
      test_pool_map_seeded_jobs_invariant;
    Alcotest.test_case "prng derive yields disjoint streams" `Quick
      test_prng_derive_streams;
    Alcotest.test_case "pool caps domains to the hardware" `Quick test_pool_domain_cap;
    Alcotest.test_case "chunk helpers slice and clamp" `Quick test_pool_chunks;
    Alcotest.test_case "local slots: init once, teardown once" `Quick
      test_pool_local_lifecycle;
    Alcotest.test_case "local slots: raising init surfaces as task failure" `Quick
      test_pool_local_init_raises;
    Alcotest.test_case "local slots: raising teardown re-raised from shutdown" `Quick
      test_pool_local_teardown_raises;
    Alcotest.test_case "explore -j4 == -j1 on bundled specs" `Quick test_explore_bundled;
    Alcotest.test_case "explore chunk size never shows in the report" `Quick
      test_explore_chunk_differential;
    Alcotest.test_case "explore -j4 == -j1 on fuzzed designs" `Quick test_explore_fuzzed;
    Alcotest.test_case "pareto front is jobs-invariant" `Quick test_pareto_differential;
    Alcotest.test_case "annealing restarts pool == serial" `Quick
      test_annealing_restarts_differential;
    Alcotest.test_case "random restarts pool == serial" `Quick
      test_random_part_differential;
    Alcotest.test_case "engine acquire rescoring is bit-exact" `Quick
      test_engine_acquire_bit_exact;
    Alcotest.test_case "replica memos are domain-private" `Quick
      test_memo_isolation_across_domains;
    Alcotest.test_case "obs registry under 8-domain load" `Slow test_obs_stress;
    Alcotest.test_case "restart sweeps are chunk- and jobs-invariant" `Quick
      test_restart_sweeps_chunk_invariant;
  ]
