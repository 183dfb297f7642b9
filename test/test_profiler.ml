(* Parallelism-profiler layer.

   Covers the probes individually — Lockprof wait/hold under real
   domain contention, Gcprof delta arithmetic, pool stats edge cases —
   and the composed guarantees: the attribution categories cover the
   measured wall (>= 90%), and arming the full profiling stack never
   changes what exploration computes. *)

module Obs = Slif_obs
module Pool = Slif_util.Pool

let with_profiling f =
  Obs.Registry.reset ();
  Obs.Attribution.reset ();
  Obs.Lockprof.reset ();
  Obs.Gcprof.reset ();
  Obs.Registry.enable ();
  Obs.Attribution.enable ();
  Obs.Lockprof.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Lockprof.set_enabled false;
      Obs.Attribution.disable ();
      Obs.Registry.disable ();
      Obs.Registry.reset ();
      Obs.Attribution.reset ();
      Obs.Lockprof.reset ();
      Obs.Gcprof.reset ())
    f

(* The merged row of the profiled locks named [name]. *)
let lock_stat name = List.find (fun s -> s.Obs.Lockprof.s_name = name) (Obs.Lockprof.all ())

(* --- Pool stats ---------------------------------------------------------- *)

let test_pool_stats_lifecycle () =
  let g0 = Pool.global_stats () in
  (* Oversubscribed on purpose: the lifecycle assertions count worker
     domains, which the hardware cap would reduce on a small machine. *)
  Pool.with_pool ~jobs:4 ~oversubscribe:true (fun pool ->
      Alcotest.(check int) "jobs" 4 (Pool.jobs pool);
      Alcotest.(check int) "domains" 4 (Pool.domains pool);
      let g = Pool.global_stats () in
      Alcotest.(check int) "fresh: live +1" (g0.Pool.g_pools_live + 1) g.Pool.g_pools_live;
      Alcotest.(check int) "fresh: submitted" g0.Pool.g_tasks_submitted
        g.Pool.g_tasks_submitted;
      (* More domains than tasks: the extra workers must stay parked
         without disturbing the count or the order. *)
      Alcotest.(check (list int)) "jobs > tasks" [ 10; 20 ]
        (Pool.map pool (fun x -> 10 * x) [ 1; 2 ]);
      (* The empty task list settles immediately. *)
      Alcotest.(check (list int)) "empty task list" [] (Pool.map pool Fun.id []));
  let g1 = Pool.global_stats () in
  Alcotest.(check int) "global: pools +1" (g0.Pool.g_pools_created + 1)
    g1.Pool.g_pools_created;
  Alcotest.(check int) "global: live back after shutdown" g0.Pool.g_pools_live
    g1.Pool.g_pools_live;
  Alcotest.(check int) "global: submitted +2" (g0.Pool.g_tasks_submitted + 2)
    g1.Pool.g_tasks_submitted;
  Alcotest.(check int) "global: completed +2" (g0.Pool.g_tasks_completed + 2)
    g1.Pool.g_tasks_completed

let test_pool_stats_serial () =
  (* The jobs=1 inline path must feed the same counters. *)
  let g0 = Pool.global_stats () in
  Pool.with_pool ~jobs:1 (fun pool ->
      ignore (Pool.map pool Fun.id [ 1; 2; 3 ]);
      Alcotest.(check int) "serial: one domain" 1 (Pool.domains pool));
  let g1 = Pool.global_stats () in
  Alcotest.(check int) "serial: submitted +3" (g0.Pool.g_tasks_submitted + 3)
    g1.Pool.g_tasks_submitted;
  Alcotest.(check int) "serial: completed +3" (g0.Pool.g_tasks_completed + 3)
    g1.Pool.g_tasks_completed

(* --- Lockprof under contention ------------------------------------------- *)

let test_lockprof_contention () =
  with_profiling @@ fun () ->
  let lk = Obs.Lockprof.create "test.contended" in
  let domains = 8 and iters = 500 in
  (* Whether two domains actually collide on the mutex is up to the
     scheduler; hammer until they do (the count invariants must hold on
     every attempt regardless). *)
  let hammer () =
    Obs.Lockprof.reset ();
    let counter = ref 0 in
    let sink = ref 0 in
    (* Spawning a domain takes far longer than the loop body runs, so
       without a start barrier the domains would hammer one after
       another and never collide. *)
    let ready = Atomic.make 0 in
    let body () =
      Atomic.incr ready;
      while Atomic.get ready < domains do
        Domain.cpu_relax ()
      done;
      for _ = 1 to iters do
        Obs.Lockprof.lock lk;
        incr counter;
        for i = 1 to 50 do
          sink := !sink + i
        done;
        Obs.Lockprof.unlock lk
      done
    in
    let spawned = List.init (domains - 1) (fun _ -> Domain.spawn body) in
    body ();
    List.iter Domain.join spawned;
    Alcotest.(check int) "mutex still excludes" (domains * iters) !counter;
    let s = lock_stat "test.contended" in
    Alcotest.(check int) "every acquisition counted" (domains * iters)
      s.Obs.Lockprof.acquisitions;
    Alcotest.(check int) "wait recorded per acquisition" (domains * iters)
      s.Obs.Lockprof.wait_us.Obs.Histogram.count;
    Alcotest.(check int) "hold recorded per acquisition" (domains * iters)
      s.Obs.Lockprof.hold_us.Obs.Histogram.count;
    Alcotest.(check bool) "contended <= acquisitions" true
      (s.Obs.Lockprof.contended <= s.Obs.Lockprof.acquisitions);
    if s.Obs.Lockprof.contended > 0 then
      Alcotest.(check bool) "contended waits took time" true
        (s.Obs.Lockprof.wait_us.Obs.Histogram.sum > 0.0);
    s
  in
  let rec attempt n =
    let s = hammer () in
    if s.Obs.Lockprof.contended > 0 then s
    else if n > 1 then attempt (n - 1)
    else s
  in
  let s = attempt 5 in
  Alcotest.(check bool) "contention observed" true (s.Obs.Lockprof.contended > 0);
  (* The named lock shows up in the exporter view. *)
  Alcotest.(check bool) "listed in all ()" true
    (List.exists (fun (st : Obs.Lockprof.stat) -> st.s_name = "test.contended")
       (Obs.Lockprof.all ()))

let test_lockprof_wait_excludes_park () =
  (* A condition park must not count as holding the lock: the waiter
     parks ~100ms, but both of its hold segments are microseconds. *)
  with_profiling @@ fun () ->
  let lk = Obs.Lockprof.create "test.parked" in
  let ready = ref false in
  let cond = Condition.create () in
  let waiter =
    Domain.spawn (fun () ->
        Obs.Lockprof.lock lk;
        while not !ready do
          Obs.Lockprof.wait lk cond
        done;
        Obs.Lockprof.unlock lk)
  in
  Unix.sleepf 0.1;
  Obs.Lockprof.lock lk;
  ready := true;
  Condition.broadcast cond;
  Obs.Lockprof.unlock lk;
  Domain.join waiter;
  let s = lock_stat "test.parked" in
  Alcotest.(check bool) "hold segments closed around the park" true
    (s.Obs.Lockprof.hold_us.Obs.Histogram.count >= 3);
  Alcotest.(check bool)
    (Printf.sprintf "no hold segment ate the 100ms park (max %.0f us)"
       s.Obs.Lockprof.hold_us.Obs.Histogram.max)
    true
    (s.Obs.Lockprof.hold_us.Obs.Histogram.max < 50_000.0)

(* --- Gcprof deltas -------------------------------------------------------- *)

let test_gcprof_delta () =
  Obs.Gcprof.reset ();
  Obs.Gcprof.sample ();
  (* pin the baseline *)
  Obs.Gcprof.reset ();
  (* ~1M words of short-lived small blocks: all minor-heap allocation. *)
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Array.make 100 0))
  done;
  Obs.Gcprof.sample ();
  let c = Obs.Gcprof.counts () in
  Alcotest.(check bool)
    (Printf.sprintf "minor words track allocation (%.0f)" c.Obs.Gcprof.minor_words)
    true
    (c.Obs.Gcprof.minor_words >= 500_000.0);
  let before = c.Obs.Gcprof.major_collections in
  Gc.full_major ();
  Obs.Gcprof.sample ();
  let c = Obs.Gcprof.counts () in
  Alcotest.(check bool) "forced major visible in delta" true
    (c.Obs.Gcprof.major_collections > before);
  (* This domain owns a per-domain cell. *)
  let self = (Domain.self () :> int) in
  Alcotest.(check bool) "per-domain cell exists" true
    (List.mem_assoc self (Obs.Gcprof.per_domain ()));
  Alcotest.(check bool) "heap gauge positive" true (Obs.Gcprof.heap_words () > 0);
  (* Reset zeroes the accumulators but keeps the baseline: the next
     delta measures from now, not from process start. *)
  Obs.Gcprof.reset ();
  Obs.Gcprof.sample ();
  let c = Obs.Gcprof.counts () in
  Alcotest.(check bool)
    (Printf.sprintf "post-reset delta is small (%.0f)" c.Obs.Gcprof.minor_words)
    true
    (c.Obs.Gcprof.minor_words < 500_000.0)

(* --- Attribution coverage -------------------------------------------------- *)

let test_attribution_covers_wall () =
  with_profiling @@ fun () ->
  let spin_ms ms =
    let t0 = Obs.Clock.now_us () in
    let acc = ref 0 in
    while Obs.Clock.now_us () -. t0 < ms *. 1e3 do
      for i = 1 to 1_000 do
        acc := !acc + i
      done
    done;
    !acc
  in
  (* Oversubscribed: the coverage invariant is only interesting with
     real worker domains, and the test counts four attribution cells. *)
  Pool.with_pool ~jobs:4 ~oversubscribe:true (fun pool ->
      ignore (Pool.map pool (fun _ -> spin_ms 5.0) (List.init 32 Fun.id)));
  let r = Obs.Attribution.report () in
  Alcotest.(check bool) "wall measured" true (r.Obs.Attribution.total_wall_us > 0.0);
  Alcotest.(check int) "all six categories present" 6 (List.length r.Obs.Attribution.totals);
  let task_run = List.assoc Obs.Attribution.Task_run r.Obs.Attribution.totals in
  Alcotest.(check bool) "task-run dominates" true
    (task_run > 0.5 *. r.Obs.Attribution.total_wall_us);
  Alcotest.(check bool)
    (Printf.sprintf "coverage >= 0.9 (%.3f)" r.Obs.Attribution.coverage)
    true
    (r.Obs.Attribution.coverage >= 0.9);
  (* Per domain, named + other must reconstruct the wall exactly (other
     is defined as the clamped remainder). *)
  List.iter
    (fun (d : Obs.Attribution.per_domain) ->
      let named = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 d.Obs.Attribution.net in
      Alcotest.(check bool)
        (Printf.sprintf "domain %d: named + other <= wall + eps" d.Obs.Attribution.dom)
        true
        (named +. d.Obs.Attribution.other_us
        <= d.Obs.Attribution.wall_us +. (0.01 *. d.Obs.Attribution.wall_us) +. 1.0))
    r.Obs.Attribution.domains;
  (* Parked workers with an empty queue were idle, and four domains
     participated. *)
  Alcotest.(check int) "one cell per pool domain" 4
    (List.length r.Obs.Attribution.domains)

(* --- Profiling never changes results -------------------------------------- *)

let profile_algos =
  [
    Specsyn.Explore.Random 10;
    Specsyn.Explore.Greedy;
    Specsyn.Explore.Annealing { Specsyn.Annealing.default_params with steps = 120 };
  ]

let test_profiler_differential () =
  let slif = Lazy.force Helpers.tiny_slif in
  let allocs = [ Specsyn.Alloc.proc_asic (); Specsyn.Alloc.proc_asic_mem () ] in
  let run_plain jobs =
    Specsyn.Report.explore_report ~timings:false
      (Specsyn.Explore.run ~jobs ~algos:profile_algos ~allocs slif)
  in
  let baseline = run_plain 1 in
  (* Fully armed stack, parallel run: byte-identical report. *)
  let profiled =
    with_profiling (fun () -> run_plain 2)
  in
  Alcotest.(check string) "armed profiler changes nothing" baseline profiled;
  (* And the driver's own cross-jobs digest check agrees. *)
  let t =
    Specsyn.Profiler.run ~name:"tiny" ~jobs:[ 1; 2 ] ~algos:profile_algos ~allocs slif
  in
  Alcotest.(check bool) "digests identical across -j" true t.Specsyn.Profiler.identical;
  Alcotest.(check int) "one run per domain count" 2 (List.length t.Specsyn.Profiler.runs);
  List.iter
    (fun (r : Specsyn.Profiler.run) ->
      (* The tiny spec finishes in milliseconds, so when the whole test
         binary is loading every core, scheduler noise can be a real
         fraction of a run's wall.  This is only a sanity floor — the
         >= 0.9 coverage bound is asserted by the attribution test above
         (on tasks long enough to amortize startup) and by CI's
         profile-smoke, which runs the real CLI with --min-coverage. *)
      Alcotest.(check bool)
        (Printf.sprintf "-j %d: coverage sane (%.3f)" r.p_jobs r.p_report.coverage)
        true
        (r.p_report.Obs.Attribution.coverage >= 0.25);
      Alcotest.(check bool) "tasks counted" true (r.Specsyn.Profiler.p_tasks > 0))
    t.Specsyn.Profiler.runs;
  (* The profiler leaves every switch off. *)
  Alcotest.(check bool) "registry off after run" false (Obs.Registry.on ());
  Alcotest.(check bool) "attribution off after run" false (Obs.Attribution.on ());
  (let lk = Obs.Lockprof.create "test.after_run" in
   Obs.Lockprof.lock lk;
   Obs.Lockprof.unlock lk;
   Obs.Lockprof.release lk;
   Alcotest.(check int) "lockprof off after run" 0 (lock_stat "test.after_run").acquisitions);
  (* JSON surface sanity. *)
  let json = Obs.Json.to_string (Specsyn.Profiler.to_json t) in
  (match Obs.Json.parse json with
  | Error e -> Alcotest.fail ("profile JSON does not parse: " ^ e)
  | Ok j -> (
      match Obs.Json.member "schema" j with
      | Some (Obs.Json.String s) -> Alcotest.(check string) "schema" "slif-profile/1" s
      | _ -> Alcotest.fail "profile JSON lacks schema"));
  Alcotest.check_raises "empty jobs rejected"
    (Invalid_argument "Profiler.run: no domain counts") (fun () ->
      ignore (Specsyn.Profiler.run ~name:"tiny" ~jobs:[] slif));
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Profiler.run: jobs must be >= 1") (fun () ->
      ignore (Specsyn.Profiler.run ~name:"tiny" ~jobs:[ 0; 2 ] slif))

let suite =
  [
    Alcotest.test_case "pool stats across the lifecycle" `Quick test_pool_stats_lifecycle;
    Alcotest.test_case "pool stats on the serial path" `Quick test_pool_stats_serial;
    Alcotest.test_case "lockprof under 8-domain contention" `Slow test_lockprof_contention;
    Alcotest.test_case "condition park never counts as hold" `Quick
      test_lockprof_wait_excludes_park;
    Alcotest.test_case "gcprof folds quick_stat deltas" `Quick test_gcprof_delta;
    Alcotest.test_case "attribution covers >= 90% of wall" `Slow
      test_attribution_covers_wall;
    Alcotest.test_case "profiling never changes exploration results" `Slow
      test_profiler_differential;
  ]
