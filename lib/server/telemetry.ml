module Obs = Slif_obs
module J = Obs.Json
module P = Obs.Prometheus

type op_stat = {
  op : string;
  lifetime : Obs.Histogram.quantiles;
  sum_us : float;
  recent : Obs.Histogram.quantiles option;
  batch_items : int;
}

type t = {
  uptime_s : float;
  requests : int;
  errors : int;
  last_error : string option;
  inflight : int;
  workers : int;
  queue_depth : int;
  jobs_inflight : int;
  per_worker : int array;
  outq_overflows : int;
  dropped_responses : int;
  rejected_connections : int;
  queue_wait : Obs.Histogram.quantiles;
  queue_wait_sum_us : float;
  select_idle_s : float;
  loop_iterations : int;
  accept_errors : int;
  ops : op_stat list;
  lru : Lru.stats;
  gc : Obs.Gcprof.counts;
  gc_per_domain : (int * Obs.Gcprof.counts) list;
  heap_words : int;
  pool : Slif_util.Pool.global_stats;
  rings : Obs.Flight.ring_stat list;
  flight_records : int;  (* ever written, dropped rings included *)
  flight_dropped : int;
  retained : int;
  retained_live : int;
  dump_bytes : int;
  counters : (string * int) list;
  histograms : (string * Obs.Histogram.summary * Obs.Histogram.quantiles) list;
}

let last_error_json s = match s.last_error with Some m -> J.String m | None -> J.Null

(* --- JSON surfaces ----------------------------------------------------------- *)

let gc_fields (c : Obs.Gcprof.counts) =
  [
    ("minor_collections", J.Int c.minor_collections);
    ("major_collections", J.Int c.major_collections);
    ("compactions", J.Int c.compactions);
    ("minor_words", J.Float c.minor_words);
    ("promoted_words", J.Float c.promoted_words);
    ("major_words", J.Float c.major_words);
  ]

let pool_json s =
  let g = s.pool in
  J.Obj
    [
      ("pools_created", J.Int g.g_pools_created);
      ("pools_live", J.Int g.g_pools_live);
      ("tasks_submitted", J.Int g.g_tasks_submitted);
      ("tasks_completed", J.Int g.g_tasks_completed);
    ]

let flight s =
  let ring (r : Obs.Flight.ring_stat) =
    J.Obj
      [
        ("domain", J.Int r.rs_dom);
        ("capacity", J.Int r.rs_capacity);
        ("records", J.Int r.rs_records);
        ("dropped", J.Int r.rs_dropped);
        ("occupancy", J.Int r.rs_occupancy);
      ]
  in
  J.Obj
    [
      ("records", J.Int s.flight_records);
      ("dropped", J.Int s.flight_dropped);
      ("retained", J.Int s.retained);
      ("retained_live", J.Int s.retained_live);
      ("dump_bytes", J.Int s.dump_bytes);
      ("rings", J.List (List.map ring s.rings));
    ]

let stats s =
  [
    ("uptime_s", J.Float s.uptime_s);
    ("requests", J.Int s.requests);
    ("errors", J.Int s.errors);
    ("inflight", J.Int s.inflight);
    ("last_error", last_error_json s);
    ("by_op", J.Obj (List.map (fun o -> (o.op, J.Int o.lifetime.q_count)) s.ops));
    ( "lru",
      J.Obj
        [
          ("size", J.Int s.lru.size);
          ("capacity", J.Int s.lru.capacity);
          ("hits", J.Int s.lru.hits);
          ("misses", J.Int s.lru.misses);
          ("keys", J.List (List.map (fun k -> J.String k) s.lru.keys));
        ] );
    ( "server",
      J.Obj
        [
          ("workers", J.Int s.workers);
          ("queue_depth", J.Int s.queue_depth);
          ("jobs_inflight", J.Int s.jobs_inflight);
          ( "per_worker",
            J.Obj
              (List.mapi
                 (fun w n -> (string_of_int w, J.Int n))
                 (Array.to_list s.per_worker)) );
          ("outq_overflows", J.Int s.outq_overflows);
          ("dropped_responses", J.Int s.dropped_responses);
          ("rejected_connections", J.Int s.rejected_connections);
          ("accept_errors", J.Int s.accept_errors);
        ] );
    (* The sliding window — what the daemon is doing now. *)
    ( "latency_us",
      J.Obj
        (List.filter_map
           (fun o -> Option.map (fun q -> (o.op, Obs.Histogram.quantiles_json q)) o.recent)
           s.ops) );
    ( "gc",
      J.Obj
        (gc_fields s.gc
        @ [
            ("heap_words", J.Int s.heap_words);
            ( "per_domain",
              J.Obj
                (List.map
                   (fun (d, c) -> (string_of_int d, J.Obj (gc_fields c)))
                   s.gc_per_domain) );
          ]) );
    ("pool", pool_json s);
    ("flight", flight s);
  ]

let health s =
  [
    ("uptime_s", J.Float s.uptime_s);
    ("inflight", J.Int s.inflight);
    ("requests", J.Int s.requests);
    ("errors", J.Int s.errors);
    ("workers", J.Int s.workers);
    ("queue_depth", J.Int s.queue_depth);
    ("lru", J.Obj [ ("size", J.Int s.lru.size); ("capacity", J.Int s.lru.capacity) ]);
    ( "gc",
      J.Obj
        [
          ("minor_collections", J.Int s.gc.minor_collections);
          ("major_collections", J.Int s.gc.major_collections);
          ("promoted_words", J.Float s.gc.promoted_words);
          ("heap_words", J.Int s.heap_words);
        ] );
    ("pool", pool_json s);
    ("last_error", last_error_json s);
  ]

let dump s =
  "--- slif serve telemetry ---\n" ^ Protocol.ok (stats s) ^ "\n--- end telemetry ---\n"

(* --- Prometheus ---------------------------------------------------------------- *)

let counter name help samples = P.Counter { name; help; samples }
let gauge name help samples = P.Gauge { name; help; samples }
let summary name help series = P.Summary { name; help; series }
let one v = [ ([], v) ]
let int n = one (float_of_int n)
let labeled key label pick l = List.map (fun x -> ([ (key, label x) ], pick x)) l

let prometheus s =
  let fi = float_of_int in
  let by_op pick = labeled "op" (fun o -> o.op) pick s.ops in
  let by_dom pick =
    labeled "domain" (fun (d, _) -> string_of_int d) (fun (_, c) -> pick c) s.gc_per_domain
  in
  let by_ring pick =
    labeled "domain"
      (fun (r : Obs.Flight.ring_stat) -> string_of_int r.rs_dom)
      (fun r -> fi (pick r))
      s.rings
  in
  let per_op_series pick =
    List.filter_map
      (fun o -> Option.map (fun (q, sum) -> ([ ("op", o.op) ], q, sum)) (pick o))
      s.ops
  in
  [
    gauge "slif_server_uptime_seconds" "Seconds since the daemon started." (one s.uptime_s);
    gauge "slif_server_inflight_connections" "Open client connections." (int s.inflight);
    counter "slif_server_requests_total" "Requests served, by op."
      (by_op (fun o -> fi o.lifetime.q_count));
    counter "slif_server_errors_total" "Requests answered with an error." (int s.errors);
    gauge "slif_server_lru_entries" "Annotated graphs resident in the LRU." (int s.lru.size);
    gauge "slif_server_lru_capacity" "LRU capacity." (int s.lru.capacity);
    counter "slif_server_lru_hits_total" "Lookups that found their graph resident."
      (int s.lru.hits);
    counter "slif_server_lru_misses_total" "Lookups that found their graph absent."
      (int s.lru.misses);
    summary "slif_server_request_duration_microseconds"
      "Lifetime per-op request latency (log-bucket quantiles)."
      (per_op_series (fun o -> Some (o.lifetime, o.sum_us)));
    summary "slif_server_recent_request_duration_microseconds"
      (Printf.sprintf "Exact quantiles over the most recent requests per op (window %d)."
         Obs.Histogram.default_window_capacity)
      (per_op_series (fun o -> Option.map (fun q -> (q, 0.0)) o.recent));
    gauge "slif_server_workers" "Worker domains executing requests." (int s.workers);
    counter "slif_server_worker_requests_total" "Completions drained, by worker domain."
      (List.mapi
         (fun w n -> ([ ("worker", string_of_int w) ], fi n))
         (Array.to_list s.per_worker));
    gauge "slif_server_queue_depth" "Jobs waiting in the dispatch queue." (int s.queue_depth);
    gauge "slif_server_jobs_inflight"
      "Dispatched request lines whose completion has not drained." (int s.jobs_inflight);
    counter "slif_server_outq_overflows_total" "Connections dropped for reading too slowly."
      (int s.outq_overflows);
    counter "slif_server_dropped_responses_total"
      "Responses discarded because their connection was gone." (int s.dropped_responses);
    counter "slif_server_rejected_connections_total"
      "Connections refused over the connection limit." (int s.rejected_connections);
    counter "slif_server_accept_errors_total"
      "Failed accepts of a pending connection (out of descriptors, say)."
      (int s.accept_errors);
  ]
  @ (match List.filter (fun o -> o.batch_items > 0) s.ops with
    | [] -> []
    | batched ->
        [
          counter "slif_server_batch_items_total" "Batch items executed, by op."
            (labeled "op" (fun o -> o.op) (fun o -> fi o.batch_items) batched);
        ])
  @ (if s.queue_wait.q_count = 0 then []
     else
       [
         summary "slif_server_queue_wait_microseconds"
           "Time jobs sat in the dispatch queue before a worker took them."
           [ ([], s.queue_wait, s.queue_wait_sum_us) ];
       ])
  @ [
      counter "slif_flight_records_total" "Flight-recorder records written, by domain."
        (by_ring (fun r -> r.rs_records));
      counter "slif_flight_dropped_total"
        "Flight records overwritten by their ring wrapping, by domain."
        (by_ring (fun r -> r.rs_dropped));
      gauge "slif_flight_ring_occupancy" "Live records in each domain's flight ring."
        (by_ring (fun r -> r.rs_occupancy));
      counter "slif_flight_retained_traces_total"
        "Slow/error traces tail-retained since startup." (int s.retained);
      counter "slif_flight_dump_bytes_total"
        "Bytes of flight-window dumps written (dump op and SIGQUIT)." (int s.dump_bytes);
      counter "slif_server_select_idle_seconds_total"
        "Time the acceptor spent parked in select with nothing to do." (one s.select_idle_s);
      counter "slif_server_loop_iterations_total" "Acceptor-loop wake-ups."
        (int s.loop_iterations);
      counter "slif_gc_minor_collections_total" "Minor collections, by domain."
        (by_dom (fun c -> fi c.minor_collections));
      counter "slif_gc_major_collections_total" "Major collection cycles, by domain."
        (by_dom (fun c -> fi c.major_collections));
      counter "slif_gc_compactions_total" "Heap compactions, by domain."
        (by_dom (fun c -> fi c.compactions));
      counter "slif_gc_minor_words_total" "Words allocated on minor heaps, by domain."
        (by_dom (fun c -> c.minor_words));
      counter "slif_gc_promoted_words_total"
        "Words promoted from minor to major heap, by domain."
        (by_dom (fun c -> c.promoted_words));
      counter "slif_gc_major_words_total"
        "Words allocated on the major heap (including promotions), by domain."
        (by_dom (fun c -> c.major_words));
      gauge "slif_gc_heap_words" "Current major-heap size of the process, in words."
        (int s.heap_words);
      counter "slif_pool_pools_created_total" "Domain pools ever created."
        (int s.pool.g_pools_created);
      gauge "slif_pool_pools_live" "Domain pools currently alive." (int s.pool.g_pools_live);
      counter "slif_pool_tasks_submitted_total" "Tasks handed to pool map calls."
        (int s.pool.g_tasks_submitted);
      counter "slif_pool_tasks_completed_total" "Pool tasks that ran to completion."
        (int s.pool.g_tasks_completed);
    ]
  (* Registry metrics export generically. *)
  @ List.map
      (fun (name, v) ->
        counter
          ("slif_" ^ P.sanitize_name name ^ "_total")
          (Printf.sprintf "Registry counter %s." name)
          (int v))
      s.counters
  @ List.map
      (fun (name, (sm : Obs.Histogram.summary), q) ->
        summary ("slif_" ^ P.sanitize_name name) (Printf.sprintf "Registry histogram %s." name)
          [ ([], q, sm.sum) ])
      s.histograms
  |> P.to_string
