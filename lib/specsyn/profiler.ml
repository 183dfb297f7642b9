module Obs = Slif_obs

type run = {
  p_jobs : int;
  p_elapsed_s : float;
  p_speedup : float;
  p_tasks : int;
  p_designs : int;
  p_designs_per_s : float;
  p_digest : string;
  p_report : Obs.Attribution.report;
  p_gc : Obs.Gcprof.counts;
  p_gc_time_us : float;
  p_gc_lost_events : int;
  p_locks : Obs.Lockprof.stat list;
  p_task_run : Obs.Histogram.quantiles option;
  p_task_queue_wait : Obs.Histogram.quantiles option;
  p_memo : (int * (int * int)) list;
}

type t = {
  spec_name : string;
  jobs : int list;
  runs : run list;
  identical : bool;
}

(* Everything deterministic about a sweep's outcome, nothing about its
   timing: the [-j] differential check hashes this. *)
let digest_entries entries =
  let b = Buffer.create 256 in
  List.iter
    (fun (e : Explore.entry) ->
      Buffer.add_string b e.Explore.alloc.Alloc.alloc_name;
      Buffer.add_char b '|';
      Buffer.add_string b (Explore.algo_name e.Explore.algo);
      Buffer.add_char b '|';
      Buffer.add_string b (Int64.to_string (Int64.bits_of_float e.Explore.solution.Search.cost));
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int e.Explore.solution.Search.evaluated);
      Buffer.add_char b '\n')
    entries;
  Digest.to_hex (Digest.string (Buffer.contents b))

let arm () =
  Obs.Registry.reset ();
  Obs.Attribution.reset ();
  Obs.Lockprof.reset ();
  Obs.Gcprof.reset ();
  Obs.Registry.enable ();
  Obs.Attribution.enable ();
  Obs.Lockprof.set_enabled true;
  (* Pause timing is best-effort: when the runtime refuses the ring,
     the report's GC line falls back to the pressure counters alone. *)
  ignore (Obs.Gcprof.start_timing ());
  (* Advance the driving domain's GC baseline to the run boundary. *)
  Obs.Gcprof.sample ()

let disarm () =
  Obs.Lockprof.set_enabled false;
  Obs.Attribution.disable ();
  Obs.Registry.disable ()

let memo_by_domain () =
  List.filter_map
    (fun (dom, counters) ->
      let get n = match List.assoc_opt n counters with Some v -> v | None -> 0 in
      let hit = get "estimate.memo_hit" and miss = get "estimate.memo_miss" in
      if hit = 0 && miss = 0 then None else Some (dom, (hit, miss)))
    (Obs.Counter.snapshot_by_domain ())

let run ?constraints ?weights ?algos ?allocs ?chunk ?trace ~name ~jobs slif =
  let jobs = List.sort_uniq compare jobs in
  if jobs = [] then invalid_arg "Profiler.run: no domain counts";
  List.iter (fun j -> if j < 1 then invalid_arg "Profiler.run: jobs must be >= 1") jobs;
  let one j =
    arm ();
    Fun.protect ~finally:disarm @@ fun () ->
    let t0 = Obs.Clock.now_us () in
    let entries = Explore.run ~jobs:j ?chunk ?constraints ?weights ?algos ?allocs slif in
    let elapsed_s = (Obs.Clock.now_us () -. t0) /. 1e6 in
    Obs.Gcprof.poll ();
    Obs.Gcprof.sample ();
    let gc_time_us = Obs.Gcprof.gc_time_us () in
    let report =
      if gc_time_us > 0.0 then Obs.Attribution.report ~gc_us:gc_time_us ()
      else Obs.Attribution.report ()
    in
    let r =
      {
        p_jobs = j;
        p_elapsed_s = elapsed_s;
        p_speedup = 1.0;
        p_tasks = Obs.Counter.get "pool.tasks";
        (* The same counter BENCH A8 divides by elapsed time, so the
           profile's throughput column and the benchmark's designs/s
           agree by construction. *)
        p_designs = Obs.Counter.get "explore.partitions_evaluated";
        p_designs_per_s =
          (let d = Obs.Counter.get "explore.partitions_evaluated" in
           if elapsed_s > 0.0 then float_of_int d /. elapsed_s else 0.0);
        p_digest = digest_entries entries;
        p_report = report;
        p_gc = Obs.Gcprof.counts ();
        p_gc_time_us = gc_time_us;
        p_gc_lost_events = Obs.Gcprof.lost_events ();
        p_locks =
          List.filter (fun (s : Obs.Lockprof.stat) -> s.acquisitions > 0) (Obs.Lockprof.all ());
        p_task_run = Obs.Histogram.quantiles "pool.task_run_us";
        p_task_queue_wait = Obs.Histogram.quantiles "pool.task_queue_wait_us";
        p_memo = memo_by_domain ();
      }
    in
    (* The trace must be exported before the next run resets the
       registry. *)
    (match trace with Some path_of -> Obs.Trace.write_file (path_of j) | None -> ());
    r
  in
  let runs = List.map one jobs in
  let base =
    match runs with r :: _ -> r.p_elapsed_s | [] -> 0.0
  in
  let runs =
    List.map
      (fun r ->
        { r with p_speedup = (if r.p_elapsed_s > 0.0 then base /. r.p_elapsed_s else 0.0) })
      runs
  in
  let identical =
    match runs with
    | [] -> true
    | r :: rest -> List.for_all (fun r' -> r'.p_digest = r.p_digest) rest
  in
  { spec_name = name; jobs; runs; identical }

(* --- JSON ------------------------------------------------------------------ *)

let categories_json cats =
  let module J = Obs.Json in
  J.Obj (List.map (fun (c, us) -> (Obs.Attribution.category_name c, J.Float us)) cats)

let report_json (r : Obs.Attribution.report) =
  let module J = Obs.Json in
  J.Obj
    [
      ("total_wall_us", J.Float r.total_wall_us);
      ("coverage", J.Float r.coverage);
      ("categories", categories_json r.totals);
      ("other_us", J.Float r.total_other_us);
      ( "per_domain",
        J.List
          (List.map
             (fun (d : Obs.Attribution.per_domain) ->
               J.Obj
                 [
                   ("dom", J.Int d.dom);
                   ("wall_us", J.Float d.wall_us);
                   ("categories", categories_json d.net);
                   ("other_us", J.Float d.other_us);
                 ])
             r.domains) );
    ]

let run_json r =
  let module J = Obs.Json in
  let opt_q = function Some q -> Obs.Histogram.quantiles_json q | None -> J.Null in
  J.Obj
    [
      ("jobs", J.Int r.p_jobs);
      ("elapsed_s", J.Float r.p_elapsed_s);
      ("speedup", J.Float r.p_speedup);
      ("tasks", J.Int r.p_tasks);
      ("designs", J.Int r.p_designs);
      ("designs_per_s", J.Float r.p_designs_per_s);
      ("digest", J.String r.p_digest);
      ("attribution", report_json r.p_report);
      ( "gc",
        J.Obj
          [
            ("minor_collections", J.Int r.p_gc.minor_collections);
            ("major_collections", J.Int r.p_gc.major_collections);
            ("compactions", J.Int r.p_gc.compactions);
            ("minor_words", J.Float r.p_gc.minor_words);
            ("promoted_words", J.Float r.p_gc.promoted_words);
            ("major_words", J.Float r.p_gc.major_words);
            ("pause_us", J.Float r.p_gc_time_us);
            ("lost_events", J.Int r.p_gc_lost_events);
          ] );
      ( "locks",
        J.List
          (List.map
             (fun (s : Obs.Lockprof.stat) ->
               J.Obj
                 [
                   ("name", J.String s.s_name);
                   ("acquisitions", J.Int s.acquisitions);
                   ("contended", J.Int s.contended);
                   ("wait_us", Obs.Histogram.quantiles_json s.wait_quantiles);
                   ("wait_total_us", J.Float s.wait_us.sum);
                   ("hold_us", Obs.Histogram.quantiles_json s.hold_quantiles);
                 ])
             r.p_locks) );
      ("task_run_us", opt_q r.p_task_run);
      ("task_queue_wait_us", opt_q r.p_task_queue_wait);
      ( "memo",
        J.List
          (List.map
             (fun (dom, (hit, miss)) ->
               J.Obj [ ("dom", J.Int dom); ("hits", J.Int hit); ("misses", J.Int miss) ])
             r.p_memo) );
    ]

let to_json t =
  let module J = Obs.Json in
  J.Obj
    [
      ("schema", J.String "slif-profile/1");
      ("spec", J.String t.spec_name);
      ("jobs", J.List (List.map (fun j -> J.Int j) t.jobs));
      ("identical", J.Bool t.identical);
      ("runs", J.List (List.map run_json t.runs));
    ]

(* --- Human rendering ------------------------------------------------------- *)

let to_text t =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.bprintf b fmt in
  pf "slif profile: %s\n" t.spec_name;
  pf "results identical across domain counts: %s\n\n"
    (if t.identical then "yes" else "NO — investigate");
  pf "  jobs  elapsed_s  speedup  tasks  designs/s  coverage\n";
  List.iter
    (fun r ->
      pf "  %4d  %9.3f  %6.2fx  %5d  %9.0f  %7.1f%%\n" r.p_jobs r.p_elapsed_s
        r.p_speedup r.p_tasks r.p_designs_per_s
        (100.0 *. r.p_report.coverage))
    t.runs;
  List.iter
    (fun r ->
      pf "\n-- attribution, -j %d (wall %.3f s across %d domains) --\n" r.p_jobs
        (r.p_report.total_wall_us /. 1e6)
        (List.length r.p_report.domains);
      let wall = r.p_report.total_wall_us in
      List.iter
        (fun (c, us) ->
          pf "  %-10s %9.3f s  %5.1f%%\n" (Obs.Attribution.category_name c) (us /. 1e6)
            (if wall > 0.0 then 100.0 *. us /. wall else 0.0))
        r.p_report.totals;
      pf "  %-10s %9.3f s  %5.1f%%\n" "other"
        (r.p_report.total_other_us /. 1e6)
        (if wall > 0.0 then 100.0 *. r.p_report.total_other_us /. wall else 0.0);
      pf "  gc: %d minor / %d major collections, %.0f promoted words, pause %.1f ms%s\n"
        r.p_gc.minor_collections r.p_gc.major_collections r.p_gc.promoted_words
        (r.p_gc_time_us /. 1e3)
        (if r.p_gc_lost_events > 0 then
           Printf.sprintf " (%d events lost)" r.p_gc_lost_events
         else "");
      List.iter
        (fun (s : Obs.Lockprof.stat) ->
          pf "  lock %-12s %6d acq, %5d contended, wait p50/p99 %.1f/%.1f us, hold p50/p99 %.1f/%.1f us\n"
            s.s_name s.acquisitions s.contended s.wait_quantiles.q_p50
            s.wait_quantiles.q_p99 s.hold_quantiles.q_p50 s.hold_quantiles.q_p99)
        r.p_locks;
      (match r.p_task_run with
      | Some q ->
          pf "  task run us: p50 %.0f  p90 %.0f  p99 %.0f  max %.0f  (n=%d)\n" q.q_p50
            q.q_p90 q.q_p99 q.q_max q.q_count
      | None -> ());
      (match r.p_task_queue_wait with
      | Some q ->
          pf "  queue wait us: p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n" q.q_p50 q.q_p90
            q.q_p99 q.q_max
      | None -> ());
      match r.p_memo with
      | [] -> ()
      | memo ->
          pf "  memo:";
          List.iter
            (fun (dom, (hit, miss)) ->
              let total = hit + miss in
              pf " d%d %d/%d (%.0f%%)" dom hit total
                (if total > 0 then 100.0 *. float_of_int hit /. float_of_int total
                 else 0.0))
            memo;
          pf "\n")
    t.runs;
  Buffer.contents b
