(* Work queue shared by the submitter and the worker domains.  Tasks are
   packaged as [unit -> unit] thunks that write into a per-call results
   array, so one queue serves map calls of any element type.  Everything
   below the public API is guarded by one profiled mutex (the
   [Slif_obs.Lockprof] lock "pool.queue"); the hot path (the task bodies)
   runs without it.

   Instrumentation never changes scheduling: tasks still execute in
   submission order off one queue, results are still reassembled by
   index, so a profiled sweep returns byte-identical results.  With the
   flight recorder, the span registry and the attribution switch off,
   the added cost per task is the probes' atomic loads and a
   [Gc.quick_stat] at completion. *)

type t = {
  n_jobs : int;                  (* requested parallelism; drives seeds/chunks *)
  n_domains : int;               (* domains actually running (capped to hardware) *)
  queue : (unit -> unit) Queue.t;
  lock : Slif_obs.Lockprof.t;
  work : Condition.t;            (* signalled when tasks arrive or at shutdown *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable completed : int;       (* tasks whose thunk settled; under [lock] *)
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
   so an attribution report taken after the pool shuts down has the
   full denominator for every worker domain. *)
let worker_main pool () =
  let t0 = Slif_obs.Clock.now_us () in
  Fun.protect
    ~finally:(fun () -> Slif_obs.Attribution.add_wall (Slif_obs.Clock.now_us () -. t0))
    (fun () -> worker_loop pool)

let create ?jobs ~oversubscribe () =
  let n_jobs = match jobs with Some j -> j | None -> default_jobs () in
  if n_jobs < 1 then invalid_arg "Pool.with_pool: jobs must be >= 1";
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
      lock = Slif_obs.Lockprof.create ~category:Slif_obs.Attribution.Queue_wait "pool.queue";
      work = Condition.create ();
      stop = false;
      workers = [];
      completed = 0;
    }
  in
  Atomic.incr g_pools_created;
  Atomic.incr g_pools_live;
  pool.workers <- List.init (n_domains - 1) (fun _ -> Domain.spawn (worker_main pool));
  pool

let jobs t = t.n_jobs
let domains t = t.n_domains

let shutdown t =
  Slif_obs.Lockprof.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Slif_obs.Lockprof.unlock t.lock;
  List.iter Domain.join t.workers;
  Atomic.decr g_pools_live;
  (* The lock's counts join its name's row; a pool per sweep must not
     leave a lock record behind per sweep. *)
  Slif_obs.Lockprof.release t.lock

let with_pool ?jobs ?(oversubscribe = false) f =
  let pool = create ?jobs ~oversubscribe () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* --- Domain-local slots ---------------------------------------------------

   One value per domain that participates in the pool's work, created
   lazily on the domain that will use it (so an [init] that resolves
   DLS-backed observability handles resolves them on the right domain).
   This is the carrier of the share-nothing architecture: an exploration
   sweep keeps one engine replica per domain in a slot, and no task ever
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

let local init = { l_init = init; l_mu = Mutex.create (); l_tbl = Hashtbl.create 8 }

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
   stores the outcome and the failure is re-raised from [map], picking
   the lowest submission index so the raised exception does not depend on
   scheduling. *)
let map pool f tasks =
  match tasks with
  | [] -> []
  | _ ->
      let arr = Array.of_list tasks in
      let n = Array.length arr in
      let results = Array.make n None in
      let failures = Array.make n None in
      let remaining = ref n in
      let settled = Condition.create () in
      (* With every profiling surface off the thunks skip the clock
         entirely.  The always-on flight recorder is its own (cheaper)
         switch: a queue-wait span per task plus causality propagation,
         so a task executing on another domain still parents its spans
         under the submitter's open span. *)
      let fl = Slif_obs.Flight.on () in
      let reg = Slif_obs.Registry.on () in
      let att = Slif_obs.Attribution.on () in
      let sub_trace = Slif_obs.Flight.current_trace () in
      let sub_span = Slif_obs.Flight.current_span () in
      (* One submission stamp: every task's queue wait starts here, and
         so does the submitting domain's wall. *)
      let t_submit = if fl || reg || att then Int64.to_int (Slif_obs.Clock.now_ns ()) else 0 in
      let run_task i =
        Slif_obs.Flight.with_causality ?trace:sub_trace
          ?parent:(if sub_span = 0 then None else Some sub_span)
          (fun () ->
            match f arr.(i) with
            | v -> results.(i) <- Some v
            | exception e -> failures.(i) <- Some e)
      in
      let thunk i () =
        (* Submission-to-start as a span on the *executing* domain,
           parented under the submitter's open span: the cross-domain
           queue-wait linkage. *)
        if fl || reg then
          ignore
            (Slif_obs.Span.record ?trace:sub_trace ~parent:sub_span
               ~hist:"pool.task_queue_wait_us" ~t0_ns:t_submit "pool.queue_wait");
        Slif_obs.Span.timed ~hist:"pool.task_run_us" ~category:Slif_obs.Attribution.Task_run
          (fun () -> run_task i);
        (* Always-on, sub-microsecond: keeps per-domain GC pressure
           counters live for the daemon without any switch. *)
        Slif_obs.Gcprof.sample ();
        Slif_obs.Lockprof.lock pool.lock;
        pool.completed <- pool.completed + 1;
        decr remaining;
        if reg || att then begin
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
        for i = 0 to n - 1 do
          thunk i ()
        done
      end
      else begin
        Slif_obs.Lockprof.lock pool.lock;
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
      if att then
        Slif_obs.Attribution.add_wall
          (float_of_int (Int64.to_int (Slif_obs.Clock.now_ns ()) - t_submit) /. 1e3);
      Array.iter (function Some e -> raise e | None -> ()) failures;
      Array.to_list (Array.map Option.get results)
