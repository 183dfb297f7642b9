(* Work queue shared by the submitter and the worker domains.  Tasks are
   packaged as [unit -> unit] thunks that write into a per-call results
   array, so one queue serves map calls of any element type.  Everything
   below the public API is guarded by one profiled mutex (the
   [Slif_obs.Lockprof] lock "pool.queue"); the hot path (the task bodies)
   runs without it.

   Instrumentation never changes scheduling: tasks still execute in
   submission order off one queue, results are still reassembled by
   index, so a profiled sweep returns byte-identical results.  With both
   the span registry and the attribution switch off, the added cost per
   task is one atomic load and a [Gc.quick_stat] at completion. *)

type t = {
  n_jobs : int;                  (* requested parallelism; drives seeds/chunks *)
  n_domains : int;               (* domains actually running (capped to hardware) *)
  queue : (unit -> unit) Queue.t;
  lock : Slif_obs.Lockprof.t;
  work : Condition.t;            (* signalled when tasks arrive or at shutdown *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable submitted : int;       (* tasks ever handed to [mapi]; under [lock] *)
  mutable completed : int;       (* tasks whose thunk settled; under [lock] *)
  (* Domain-local slot machinery (cold paths, own plain mutex so the
     profiled queue lock never sees it). *)
  aux_mu : Mutex.t;
  mutable cleanups : (int -> unit) list;  (* newest first; arg = domain id *)
  mutable teardown_exn : exn option;      (* first teardown failure, raised by [shutdown] *)
}

type stats = {
  st_jobs : int;
  st_worker_domains : int;
  st_queued : int;
  st_submitted : int;
  st_completed : int;
}

(* Process-wide totals for the daemon's metrics: pools are transient
   (one per sweep), so the scrape needs counters that survive them. *)
let g_pools_created = Atomic.make 0
let g_pools_live = Atomic.make 0
let g_submitted = Atomic.make 0
let g_completed = Atomic.make 0

type global_stats = {
  g_pools_created : int;
  g_pools_live : int;
  g_tasks_submitted : int;
  g_tasks_completed : int;
}

let global_stats () =
  {
    g_pools_created = Atomic.get g_pools_created;
    g_pools_live = Atomic.get g_pools_live;
    g_tasks_submitted = Atomic.get g_submitted;
    g_tasks_completed = Atomic.get g_completed;
  }

let default_jobs () = Domain.recommended_domain_count ()

(* Run every registered domain-local teardown for the calling domain.
   A raising teardown must not abandon the remaining slots or wedge
   [shutdown]'s joins, so failures are recorded (first one wins — the
   registration order is deterministic) and re-raised later from
   [shutdown] on the submitting domain. *)
let run_cleanups pool =
  let dom = (Domain.self () :> int) in
  Mutex.lock pool.aux_mu;
  let fs = List.rev pool.cleanups in
  Mutex.unlock pool.aux_mu;
  List.iter
    (fun f ->
      try f dom
      with e ->
        Mutex.lock pool.aux_mu;
        if pool.teardown_exn = None then pool.teardown_exn <- Some e;
        Mutex.unlock pool.aux_mu)
    fs

let rec worker_loop pool =
  Slif_obs.Lockprof.lock pool.lock;
  while Queue.is_empty pool.queue && not pool.stop do
    (* Parked with nothing to run: idle time, not queue contention. *)
    Slif_obs.Lockprof.wait pool.lock pool.work
  done;
  if Queue.is_empty pool.queue then Slif_obs.Lockprof.unlock pool.lock (* stop requested *)
  else begin
    let thunk = Queue.pop pool.queue in
    Slif_obs.Lockprof.unlock pool.lock;
    thunk ();
    worker_loop pool
  end

(* Workers report their whole loop lifetime as wall time when they join,
   so an attribution report taken after [shutdown] has the full
   denominator for every worker domain.  Domain-local slots are torn
   down on the worker itself, after its last task and before it exits —
   the other half of the init-on-first-use lifecycle. *)
let worker_main pool () =
  let t0 = Slif_obs.Clock.now_us () in
  Fun.protect
    ~finally:(fun () ->
      run_cleanups pool;
      Slif_obs.Attribution.add_wall (Slif_obs.Clock.now_us () -. t0))
    (fun () -> worker_loop pool)

let create ?name ?jobs ?(oversubscribe = false) () =
  let n_jobs = match jobs with Some j -> j | None -> default_jobs () in
  if n_jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  (* Domains beyond the hardware's parallelism cannot run concurrently;
     they only multiply stop-the-world GC barriers and scheduling
     latency (the measured A8 inversion).  The requested [n_jobs] keeps
     driving seeds and chunk sizes — results depend on it alone — while
     the domain count is capped to what the machine can actually run, so
     [-j 8] on a small box degrades to fewer domains, never to a
     slowdown.  [oversubscribe] bypasses the cap (the contention tests
     and the profiler's worst-case mode want the pathology back). *)
  let n_domains =
    if oversubscribe then n_jobs
    else min n_jobs (max 1 (Domain.recommended_domain_count ()))
  in
  let pool =
    {
      n_jobs;
      n_domains;
      queue = Queue.create ();
      lock =
        (* A named pool (the daemon's long-lived worker pool, say) gets
           its own Lockprof series, so its queue contention is not
           pooled with every transient sweep pool's. *)
        Slif_obs.Lockprof.create ~category:Slif_obs.Attribution.Queue_wait
          (match name with
          | Some n -> "pool.queue:" ^ n
          | None -> "pool.queue");
      work = Condition.create ();
      stop = false;
      workers = [];
      submitted = 0;
      completed = 0;
      aux_mu = Mutex.create ();
      cleanups = [];
      teardown_exn = None;
    }
  in
  Atomic.incr g_pools_created;
  Atomic.incr g_pools_live;
  pool.workers <- List.init (n_domains - 1) (fun _ -> Domain.spawn (worker_main pool));
  pool

let jobs t = t.n_jobs
let domains t = t.n_domains

let stats t =
  Slif_obs.Lockprof.lock t.lock;
  let s =
    {
      st_jobs = t.n_jobs;
      st_worker_domains = List.length t.workers;
      st_queued = Queue.length t.queue;
      st_submitted = t.submitted;
      st_completed = t.completed;
    }
  in
  Slif_obs.Lockprof.unlock t.lock;
  s

let shutdown t =
  Slif_obs.Lockprof.lock t.lock;
  let was_stopped = t.stop in
  t.stop <- true;
  Condition.broadcast t.work;
  Slif_obs.Lockprof.unlock t.lock;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers;
  if not was_stopped then begin
    Atomic.decr g_pools_live;
    (* The submitting domain participates in the work, so it may hold
       initialized slots too. *)
    run_cleanups t;
    Mutex.lock t.aux_mu;
    let e = t.teardown_exn in
    t.teardown_exn <- None;
    Mutex.unlock t.aux_mu;
    match e with None -> () | Some e -> raise e
  end

let with_pool ?name ?jobs ?oversubscribe f =
  let pool = create ?name ?jobs ?oversubscribe () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* --- Domain-local slots ---------------------------------------------------

   One value per domain that participates in the pool's work, created
   lazily on the domain that will use it (so an [init] that resolves
   DLS-backed observability handles resolves them on the right domain)
   and torn down when the worker exits or the pool shuts down.  This is
   the carrier of the share-nothing architecture: an exploration sweep
   keeps one engine replica per domain in a slot, and no task ever
   touches another domain's replica.

   Only the table structure is locked; each domain reads and writes its
   own key exclusively, so [get] never blocks on another domain's init
   and an initialized slot is reached with one small critical section
   per task. *)

type 'a local = {
  l_init : unit -> 'a;
  l_mu : Mutex.t;
  l_tbl : (int, 'a) Hashtbl.t;  (* domain id -> slot *)
}

let local pool ?teardown init =
  let l = { l_init = init; l_mu = Mutex.create (); l_tbl = Hashtbl.create 8 } in
  (match teardown with
  | None -> ()
  | Some td ->
      let cleanup dom =
        Mutex.lock l.l_mu;
        let v = Hashtbl.find_opt l.l_tbl dom in
        Hashtbl.remove l.l_tbl dom;
        Mutex.unlock l.l_mu;
        match v with None -> () | Some v -> td v
      in
      Mutex.lock pool.aux_mu;
      pool.cleanups <- cleanup :: pool.cleanups;
      Mutex.unlock pool.aux_mu);
  l

let get (l : 'a local) =
  let dom = (Domain.self () :> int) in
  Mutex.lock l.l_mu;
  let v = Hashtbl.find_opt l.l_tbl dom in
  Mutex.unlock l.l_mu;
  match v with
  | Some v -> v
  | None ->
      (* Init runs outside the lock: it may be expensive (an engine
         replica build) and no other domain can race for this key.  An
         init that raises stores nothing — the exception surfaces as the
         calling task's deterministic failure, and a later [get] retries. *)
      let v = l.l_init () in
      Mutex.lock l.l_mu;
      Hashtbl.add l.l_tbl dom v;
      Mutex.unlock l.l_mu;
      v

(* --- Chunking -------------------------------------------------------------

   Coarse work units for sweeps whose natural tasks are tiny.  The
   helpers only slice index space; determinism is the caller's side of
   the contract — derive per *index* (not per chunk) from the root seed
   and merge earliest-index-wins, and the result is a pure function of
   the index range, byte-identical for every chunk size and job count. *)

let chunks ~chunk n =
  if chunk < 1 then invalid_arg "Pool.chunks: chunk must be >= 1";
  let rec go start acc =
    if start >= n then List.rev acc
    else go (start + chunk) ((start, min chunk (n - start)) :: acc)
  in
  go 0 []

let default_chunk ~jobs n =
  if jobs < 1 then invalid_arg "Pool.default_chunk: jobs must be >= 1";
  if n <= 0 then 1
  else
    (* About four chunks per domain: coarse enough to amortize queue
       traffic and per-chunk setup, fine enough that a straggler chunk
       cannot idle the other domains for long.  The cap keeps single-job
       runs from degenerating into one giant task that a later [-j]
       comparison could not split. *)
    max 1 (min 64 ((n + (4 * jobs) - 1) / (4 * jobs)))

(* Tasks never let an exception escape into the worker loop: the thunk
   stores the outcome and the failure is re-raised from [mapi], picking
   the lowest submission index so the raised exception does not depend on
   scheduling. *)
let mapi pool f tasks =
  match tasks with
  | [] -> []
  | _ ->
      let arr = Array.of_list tasks in
      let n = Array.length arr in
      let results = Array.make n None in
      let failures = Array.make n None in
      let remaining = ref n in
      let settled = Condition.create () in
      (* One flag per call: with every profiling surface off, the thunks
         skip the clock reads entirely.  The always-on flight recorder
         is its own (cheaper) switch: a queue-wait span per task plus
         causality propagation, so a task executing on another domain
         still parents its spans under the submitter's open span. *)
      let profiled = Slif_obs.Registry.on () || Slif_obs.Attribution.on () in
      let fl = Slif_obs.Flight.on () in
      let sub_trace = Slif_obs.Flight.current_trace () in
      let sub_span = Slif_obs.Flight.current_span () in
      let wall0 = if profiled then Slif_obs.Clock.now_us () else 0.0 in
      let t_submit = if profiled then Slif_obs.Clock.now_us () else 0.0 in
      let t_submit_ns = if fl then Int64.to_int (Slif_obs.Clock.now_ns ()) else 0 in
      let run_task i =
        Slif_obs.Flight.with_causality ?trace:sub_trace
          ?parent:(if sub_span = 0 then None else Some sub_span)
          (fun () ->
            if fl then begin
              (* Submission-to-start as a span on the *executing*
                 domain, parented under the submitter's open span: the
                 cross-domain queue-wait linkage. *)
              let now = Int64.to_int (Slif_obs.Clock.now_ns ()) in
              Slif_obs.Flight.record_span ?trace:sub_trace
                ~id:(Slif_obs.Flight.next_id ()) ~parent:sub_span
                ~name:"pool.queue_wait" ~t0_ns:t_submit_ns ~dur_ns:(now - t_submit_ns)
                ()
            end;
            match f i arr.(i) with
            | v -> results.(i) <- Some v
            | exception e -> failures.(i) <- Some e)
      in
      let thunk i () =
        (if profiled then begin
           let t_start = Slif_obs.Clock.now_us () in
           (* Submission-to-start latency: how long the task sat queued. *)
           Slif_obs.Histogram.observe "pool.task_queue_wait_us" (t_start -. t_submit);
           run_task i;
           let dur = Slif_obs.Clock.now_us () -. t_start in
           Slif_obs.Histogram.observe "pool.task_run_us" dur;
           Slif_obs.Attribution.add Slif_obs.Attribution.Task_run dur
         end
         else run_task i);
        (* Always-on, sub-microsecond: keeps per-domain GC pressure
           counters live for the daemon without any switch. *)
        Slif_obs.Gcprof.sample ();
        Slif_obs.Lockprof.lock pool.lock;
        pool.completed <- pool.completed + 1;
        decr remaining;
        if profiled then begin
          (* Counter tracks for the trace export: queue drain and task
             completion over time. *)
          Slif_obs.Flight.record_counter "pool.queue_depth" (Queue.length pool.queue);
          Slif_obs.Flight.record_counter "pool.tasks_completed" pool.completed
        end;
        if !remaining = 0 then Condition.broadcast settled;
        Slif_obs.Lockprof.unlock pool.lock
      in
      Slif_obs.Counter.add "pool.tasks" n;
      Atomic.fetch_and_add g_submitted n |> ignore;
      if pool.n_domains = 1 || n = 1 then begin
        Slif_obs.Lockprof.lock pool.lock;
        pool.submitted <- pool.submitted + n;
        Slif_obs.Lockprof.unlock pool.lock;
        for i = 0 to n - 1 do
          thunk i ()
        done
      end
      else begin
        Slif_obs.Lockprof.lock pool.lock;
        pool.submitted <- pool.submitted + n;
        for i = 0 to n - 1 do
          Queue.add (thunk i) pool.queue
        done;
        Condition.broadcast pool.work;
        (* The submitter drains the queue alongside the workers, then
           sleeps until the last in-flight task settles. *)
        while not (Queue.is_empty pool.queue) do
          let thunk = Queue.pop pool.queue in
          Slif_obs.Lockprof.unlock pool.lock;
          thunk ();
          Slif_obs.Lockprof.lock pool.lock
        done;
        while !remaining > 0 do
          (* Waiting for stragglers is idle time on the submitter. *)
          Slif_obs.Lockprof.wait pool.lock settled
        done;
        Slif_obs.Lockprof.unlock pool.lock
      end;
      Atomic.fetch_and_add g_completed n |> ignore;
      (* The submitting domain's wall denominator: each map call's span. *)
      if profiled then Slif_obs.Attribution.add_wall (Slif_obs.Clock.now_us () -. wall0);
      Array.iter (function Some e -> raise e | None -> ()) failures;
      Array.to_list (Array.map Option.get results)

let map pool f tasks = mapi pool (fun _ x -> f x) tasks

let map_seeded pool ~seed f tasks =
  mapi pool (fun i task -> f (Prng.derive ~root:seed i) task) tasks
