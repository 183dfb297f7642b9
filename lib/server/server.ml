module Obs = Slif_obs

type addr =
  | Unix_sock of string
  | Tcp of int

type config = {
  addr : addr;
  cache_dir : string option;
  lru_capacity : int;
  workers : int;
  jobs : int;
  max_requests : int option;
  slow_ms : float option;
  max_line_bytes : int;
  max_batch_items : int;
  max_outq_bytes : int;
  max_connections : int option;
  max_graph_mb : int option;
  retain_traces : int;  (** tail-retention bound: slow/error traces kept in memory *)
  trace_dir : string option;  (** also persist retained traces (and dumps) here *)
}

(* A line that long is not a query; answer with a protocol error and
   drop the connection instead of buffering without bound. *)
let default_max_line_bytes = 64 * 1024 * 1024

(* Unread responses past this mark the reader as too slow to keep. *)
let default_max_outq_bytes = 32 * 1024 * 1024

(* [select] polls only fds below FD_SETSIZE (1024).  This many client
   connections leave the rest for stdio, the listening socket, the
   self-pipe, the event log and transient cache/trace files; a larger
   [max_connections] is clamped to it. *)
let default_max_connections = 1000

let default_config addr =
  {
    addr;
    cache_dir = None;
    lru_capacity = 8;
    workers = 1;
    jobs = 1;
    max_requests = None;
    slow_ms = None;
    max_line_bytes = default_max_line_bytes;
    max_batch_items = Protocol.default_max_batch_items;
    max_outq_bytes = default_max_outq_bytes;
    max_connections = Some default_max_connections;
    max_graph_mb = None;
    retain_traces = 32;
    trace_dir = None;
  }

type conn = {
  fd : Unix.file_descr;
  cid : int;  (** connection serial, part of every trace id *)
  rbuf : Buffer.t;
  out : Buffer.t;  (** bytes accepted but not yet written *)
  mutable out_off : int;  (** prefix of [out] already written *)
  mutable close_after_flush : bool;
  mutable dropping : bool;
      (** backpressure tripped: responses are discarded, the connection
          closes once the error line flushes *)
  mutable next_seq : int;  (** next sequence number to assign at framing *)
  mutable next_flush : int;  (** next sequence number to move into [out] *)
  pending : (int, string) Hashtbl.t;
      (** completed responses waiting for their turn on the wire —
          workers finish out of order, clients read in order *)
}

(* What a worker measured about one executed request; the acceptor owns
   every counter, so accounting rides back on the completion. *)
type acct = {
  a_op : string;
  a_wire : bool;  (** a request line (counts toward [served]) vs a batch item *)
  a_dur_us : float;
  a_err : string option;
}

type job = {
  jb_cid : int;
  jb_seq : int;
  jb_tid : string;
  jb_root : int;  (** flight span id of the request root, minted at dispatch *)
  jb_line : string;
  jb_enq_ns : int;  (** dispatch instant: where the queue wait starts *)
}

type outcome =
  | Resp of string * acct list  (** serialized response + accounting *)
  | Control of Protocol.request
      (** stats/health/metrics/shutdown: rendered by the acceptor, which
          owns the state they report *)

type completion = {
  cp_cid : int;
  cp_seq : int;
  cp_tid : string;
  cp_root : int;  (** the request's root flight span id *)
  cp_enq_ns : int;  (** dispatch instant: the root span opens here *)
  cp_worker : int;
  cp_wait_us : float;  (** time the job sat in the queue *)
  cp_out : outcome;
}

(* Everything the acceptor and the worker domains share: the job queue
   (condition-parked workers), the completion queue, and the self-pipe
   that wakes the acceptor's select when a completion lands. *)
type shared = {
  jq_lock : Mutex.t;
  jq_cond : Condition.t;
  jq : job Queue.t;
  mutable jq_stop : bool;
  cq_lock : Mutex.t;
  cq : completion Queue.t;
  wake_w : Unix.file_descr;
}

(* Per-op telemetry: a lifetime log-bucket latency histogram, a sliding
   window of recent requests, and the op's batch items.  Always on (the
   cost per request is two bucket increments), independent of the
   registry switch, so [metrics] and [stats] answer even when span
   recording is off.  Only the acceptor touches it. *)
type op_lat = {
  lt : Obs.Histogram.t;
  win : Obs.Histogram.window;
  mutable batch_items : int;
}

(* One tail-retained trace: the span tree of a request that finished
   slow or failing, reconstructed from the flight window at completion
   time.  Bounded by [cfg.retain_traces] (oldest evicted first, its
   on-disk file removed with it). *)
type retained = {
  rt_id : string;
  rt_reason : string;  (* "slow" | "error" *)
  rt_op : string;
  rt_dur_us : float;
  rt_spans : int;
  rt_json : Obs.Json.t;
  rt_file : string option;
}

(* An LRU that several domains share: every call on [set] holds [lock].
   The daemon has two — the resident set of annotated graphs, and the
   open store-file handles.  [store_handle] takes the resident lock
   inside the handle lock, never the reverse. *)
type 'a locked = { set : 'a Lru.t; lock : Mutex.t }

let locked ~capacity = { set = Lru.create ~capacity; lock = Mutex.create () }

let with_lru l f =
  Mutex.lock l.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock l.lock) (fun () -> f l.set)

type state = {
  cfg : config;
  lru : Slif.Types.t locked;
  sh : shared;
  started_us : float;
  mutable served : int;
  mutable errors : int;
  mutable next_req : int;
  mutable inflight : int;  (** open client connections *)
  mutable jobs_inflight : int;  (** dispatched lines whose completion has not drained *)
  mutable outq_overflows : int;
  mutable dropped_responses : int;
  mutable rejected_conns : int;
  worker_served : int array;  (** per-worker completions, drained single-threaded *)
  queue_wait : Obs.Histogram.t;
  mutable last_error : string option;
  lat : (string, op_lat) Hashtbl.t;
  mutable select_idle_us : float;  (** time parked in [select] with nothing to do *)
  mutable loop_iters : int;
  mutable accept_errors : int;  (** [accept] calls that failed *)
  mutable accept_resume_us : float;
      (** out of descriptors: the listening socket stays out of [select]
          until this instant, or until a connection closes *)
  retained : retained Queue.t;  (** oldest first, bounded by [cfg.retain_traces] *)
  mutable retained_total : int;  (** traces ever retained (evictions included) *)
  mutable dump_bytes : int;  (** bytes of flight dumps written ([dump] op + SIGQUIT) *)
  mutable stop : bool;
}

(* A store-file target resolves to either a shared lazy v2 handle or a
   v1 marker (v1 containers can only be decoded whole) that remembers
   which file it saw, so both revalidate the same way. *)
type stored =
  | Lazy of Slif_store.Lazy_store.t
  | Eager_v1 of Slif_store.Lazy_store.identity

(* The execution environment workers see: configuration, the
   resident set, and the open store-file handles — no acceptor-owned
   mutable accounting.  Handles are keyed by path and shared across
   workers; a [Lazy_store.t] is domain-safe, so the cache's lock only
   guards the cache itself.  The cache is a bounded LRU: a stream of
   distinct store paths evicts the least recently used handle instead
   of growing a table without limit. *)
type exec_env = {
  x_cfg : config;
  x_lru : Slif.Types.t locked;
  x_stores : stored locked;
}

(* Handles are metadata-sized (directory + META, no descriptor held), so
   the bound only guards against pathological path churn. *)
let store_handle_capacity = 64

(* A handler-level error with a machine-readable kind ("kind" in the
   error response) — admission-control rejections, which clients
   dispatch on without parsing the message. *)
exception Typed_error of string * string

(* Every op the daemon can ever serve, so one [metrics] scrape exposes
   the full family set even before traffic arrives. *)
let known_ops =
  [ "load"; "estimate"; "partition"; "explore"; "batch"; "stats"; "health";
    "metrics"; "dump"; "traces"; "shutdown"; "malformed" ]

let lat_for st op =
  match Hashtbl.find_opt st.lat op with
  | Some l -> l
  | None ->
      let l =
        { lt = Obs.Histogram.create (); win = Obs.Histogram.window (); batch_items = 0 }
      in
      Hashtbl.add st.lat op l;
      l

let note_error st msg =
  st.errors <- st.errors + 1;
  st.last_error <- Some msg;
  Obs.Counter.incr "server.error"

(* Acceptor-side accounting for one executed request or batch item. *)
let account st (a : acct) =
  let l = lat_for st a.a_op in
  if a.a_wire then st.served <- st.served + 1 else l.batch_items <- l.batch_items + 1;
  Obs.Counter.incr ("server.request." ^ a.a_op);
  Obs.Histogram.record l.lt a.a_dur_us;
  Obs.Histogram.window_record l.win a.a_dur_us;
  match a.a_err with Some msg -> note_error st msg | None -> ()

let queue_depth st = Mutex.protect st.sh.jq_lock (fun () -> Queue.length st.sh.jq)

(* --- Target resolution ----------------------------------------------------- *)

let source_of_bundled name =
  match Specs.Registry.find name with
  | Some s -> Ok s.Specs.Registry.source
  | None ->
      Error
        (Printf.sprintf "unknown spec %S (expected one of: %s)" name
           (String.concat ", "
              (List.map (fun s -> s.Specs.Registry.spec_name) Specs.Registry.all)))

let stored_key path = "store:" ^ path

(* Resolve a path to a cached handle, revalidating on every hit: a
   handle reads only the inode it opened, and [save_slif] replaces
   stores by atomic rename, so a hit whose (dev, ino, size, mtime) no
   longer matches the path means the file was regenerated — drop the
   stale handle *and* its decoded [store:<path>] LRU entry, then reopen.  A
   path with no handle cached drops the decoded entry too: nothing
   vouches for it any more. *)
let store_handle env path =
  with_lru env.x_stores (fun stores ->
      let reopen () =
        let opened =
          match Slif_store.Lazy_store.open_file path with
          | Ok h -> Ok (Lazy h)
          | Error (Slif_store.Store.Unsupported_version 1) -> (
              match Slif_store.Lazy_store.file_identity path with
              | Some id -> Ok (Eager_v1 id)
              | None -> Error (path ^ ": store file vanished while opening"))
          | Error err -> Error (Slif_store.Store.error_message err)
        in
        Result.iter (Lru.add stores path) opened;
        opened
      in
      let stale = function
        | Lazy h -> Slif_store.Lazy_store.stale h
        | Eager_v1 id -> Slif_store.Lazy_store.changed path id
      in
      match Lru.find stores path with
      | Some stored when not (stale stored) -> Ok stored
      | cached ->
          if Option.is_some cached then begin
            Obs.Counter.incr "server.store.reopen";
            Lru.remove stores path
          end;
          with_lru env.x_lru (fun l -> Lru.remove l (stored_key path));
          reopen ())

(* Admission control: decode nothing whose decoded form would not fit
   the [--max-graph-mb] budget.  [bytes] is META's decoded-heap estimate
   for a v2 container and the file size (a lower bound on the decoded
   heap) for a v1 one. *)
let check_graph_budget env ~path ~bytes =
  match env.x_cfg.max_graph_mb with
  | Some mb when bytes > mb * 1024 * 1024 ->
      raise
        (Typed_error
           ( "graph_too_large",
             Printf.sprintf
               "%s: decoded graph needs ~%d MB, over the --max-graph-mb budget (%d MB)"
               path
               ((bytes + (1024 * 1024) - 1) / (1024 * 1024))
               mb ))
  | Some _ | None -> ()

(* A resident-set lookup, marked as a black-box instant: a retained
   trace shows whether the request hit or paid a decode/rebuild. *)
let find_resident env key =
  let found = with_lru env.x_lru (fun l -> Lru.find l key) in
  Obs.Flight.record_event
    (if Option.is_some found then "server.lru.hit" else "server.lru.miss");
  found

let add_resident env key slif = with_lru env.x_lru (fun l -> Lru.add l key slif)

(* Resolve a request target to (content key, annotated SLIF), going
   through the resident set and, below it, the on-disk cache.  Two
   workers missing on the same key concurrently both build it; the
   second [add] refreshes the first — graphs are immutable, so the
   duplicate work is idempotent and briefly-doubled, never wrong. *)
let resolve env target profile =
  match target with
  | Protocol.Stored path -> (
      match profile with
      | Some _ -> Error "store targets are already annotated: \"profile\" does not apply"
      | None -> (
          (* Handle first, LRU second: the hit-side stat revalidation in
             [store_handle] is what invalidates a stale [store:<path>]
             entry before we consult it. *)
          match store_handle env path with
          | Error _ as e -> e
          | Ok stored -> (
              let key = stored_key path in
              match find_resident env key with
              | Some slif -> Ok (key, slif)
              | None -> (
                  match stored with
                  | Lazy h -> (
                      check_graph_budget env ~path
                        ~bytes:(Slif_store.Lazy_store.decoded_bytes_estimate h);
                      match
                        Obs.Span.with_ "server.store.decode" (fun () ->
                            Slif_store.Lazy_store.slif h)
                      with
                      | Error err -> Error (Slif_store.Store.error_message err)
                      | Ok (slif, _prov) ->
                          add_resident env key slif;
                          Ok (key, slif))
                  | Eager_v1 _ -> (
                      match Slif_store.Store.read_file path with
                      | Error err -> Error (Slif_store.Store.error_message err)
                      | Ok text -> (
                          check_graph_budget env ~path ~bytes:(String.length text);
                          match
                            Obs.Span.with_ "server.store.decode" (fun () ->
                                Slif_store.Store.slif_of_string text)
                          with
                          | Error err -> Error (Slif_store.Store.error_message err)
                          | Ok (slif, _prov) ->
                              add_resident env key slif;
                              Ok (key, slif)))))))
  | Protocol.Key key -> (
      match find_resident env key with
      | Some slif -> Ok (key, slif)
      | None -> Error (Printf.sprintf "key %S is not resident (load it first)" key))
  | Protocol.Bundled _ | Protocol.Source _ -> (
      let source =
        match target with
        | Protocol.Bundled name -> source_of_bundled name
        | Protocol.Source text -> Ok text
        | Protocol.Key _ | Protocol.Stored _ -> assert false
      in
      match source with
      | Error _ as e -> e
      | Ok source -> (
          let key = Slif_store.Cache.key ~source ?profile () in
          match find_resident env key with
          | Some slif -> Ok (key, slif)
          | None ->
              let slif =
                Obs.Span.with_ "server.annotate" (fun () ->
                    Ops.annotated ?cache_dir:env.x_cfg.cache_dir ?profile_text:profile
                      source)
              in
              add_resident env key slif;
              Ok (key, slif)))

(* --- Telemetry snapshot -------------------------------------------------------- *)

(* Sample everything the telemetry surfaces report, once: the acceptor
   owns every counter read here, so no field can move mid-render. *)
let snapshot st =
  Obs.Gcprof.sample ();
  let ops =
    Hashtbl.fold
      (fun op l acc ->
        if Obs.Histogram.count l.lt = 0 then acc
        else
          {
            Telemetry.op;
            lifetime = Obs.Histogram.quantile_summary l.lt;
            sum_us = Obs.Histogram.sum l.lt;
            recent = Obs.Histogram.window_quantiles l.win;
            batch_items = l.batch_items;
          }
          :: acc)
      st.lat []
    |> List.sort (fun a b -> compare a.Telemetry.op b.Telemetry.op)
  in
  {
    Telemetry.uptime_s = (Obs.Clock.now_us () -. st.started_us) /. 1e6;
    requests = st.served;
    errors = st.errors;
    last_error = st.last_error;
    inflight = st.inflight;
    workers = st.cfg.workers;
    queue_depth = queue_depth st;
    jobs_inflight = st.jobs_inflight;
    per_worker = Array.copy st.worker_served;
    outq_overflows = st.outq_overflows;
    dropped_responses = st.dropped_responses;
    rejected_connections = st.rejected_conns;
    queue_wait = Obs.Histogram.quantile_summary st.queue_wait;
    queue_wait_sum_us = Obs.Histogram.sum st.queue_wait;
    select_idle_s = st.select_idle_us /. 1e6;
    loop_iterations = st.loop_iters;
    accept_errors = st.accept_errors;
    ops;
    lru = with_lru st.lru Lru.stats;
    gc = Obs.Gcprof.counts ();
    gc_per_domain = Obs.Gcprof.per_domain ();
    heap_words = Obs.Gcprof.heap_words ();
    pool = Slif_util.Pool.global_stats ();
    rings = Obs.Flight.ring_stats ();
    flight_records = Obs.Flight.records_total ();
    flight_dropped = Obs.Flight.dropped_total ();
    retained = st.retained_total;
    retained_live = Queue.length st.retained;
    dump_bytes = st.dump_bytes;
    counters = Obs.Counter.snapshot ();
    histograms = Obs.Histogram.snapshot_full ();
  }

(* --- Request execution (worker side) --------------------------------------- *)

let deadlines_of specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest -> (
        match Ops.parse_deadline spec with
        | Ok d -> go (d :: acc) rest
        | Error msg -> Error msg)
  in
  go [] specs

let exn_message = function
  | Slif_store.Store.Store_error err -> Slif_store.Store.error_message err
  | Failure msg -> msg
  | Invalid_argument msg -> msg
  | e -> Printexc.to_string e

(* The response fields for one non-control, non-batch request. *)
let fields_of_request env req =
  let module J = Obs.Json in
  let with_target target profile f =
    match resolve env target profile with Error _ as e -> e | Ok (key, slif) -> f key slif
  in
  match req with
  | Protocol.Load { target = Protocol.Stored path; profile = None } -> (
      (* A v2 container answers from its mapped directory + META — the
         graph sections stay undecoded however large the file is, so
         the daemon can describe graphs far over its LRU (or
         --max-graph-mb) budget.  v1 cannot be decoded piecemeal and
         takes the ordinary resolve path below. *)
      match store_handle env path with
      | Error _ as e -> e
      | Ok (Lazy h) ->
          let m = Slif_store.Lazy_store.meta h in
          Ok
            [
              ("key", J.String (stored_key path));
              ("design", J.String m.Slif_store.Store.vm_design);
              ("nodes", J.Int m.Slif_store.Store.vm_nodes);
              ("channels", J.Int m.Slif_store.Store.vm_chans);
              ("lazy", J.Bool (not (Slif_store.Lazy_store.decoded h)));
              ( "decoded_bytes_estimate",
                J.Int (Slif_store.Lazy_store.decoded_bytes_estimate h) );
              ("file_bytes", J.Int (Slif_store.Lazy_store.file_size h));
            ]
      | Ok (Eager_v1 _) ->
          with_target (Protocol.Stored path) None (fun key (slif : Slif.Types.t) ->
              Ok
                [
                  ("key", J.String key);
                  ("design", J.String slif.Slif.Types.design_name);
                  ("nodes", J.Int (Array.length slif.Slif.Types.nodes));
                  ("channels", J.Int (Array.length slif.Slif.Types.chans));
                  ("lazy", J.Bool false);
                ]))
  | Protocol.Load { target; profile } ->
      with_target target profile (fun key (slif : Slif.Types.t) ->
          Ok
            [
              ("key", J.String key);
              ("design", J.String slif.Slif.Types.design_name);
              ("nodes", J.Int (Array.length slif.Slif.Types.nodes));
              ("channels", J.Int (Array.length slif.Slif.Types.chans));
            ])
  | Protocol.Estimate { target; profile; bounds } ->
      with_target target profile (fun key slif ->
          let output = Ops.estimate_output ~bounds slif in
          Ok [ ("key", J.String key); ("output", J.String output) ])
  | Protocol.Partition { target; profile; algo; deadlines } ->
      with_target target profile (fun key slif ->
          match Ops.algo_of_string algo with
          | Error _ as e -> e
          | Ok algo -> (
              match deadlines_of deadlines with
              | Error _ as e -> e
              | Ok ds ->
                  let constraints = Ops.constraints_of_deadlines ds in
                  let output, _part = Ops.partition_output ~algo ~constraints slif in
                  Ok [ ("key", J.String key); ("output", J.String output) ]))
  | Protocol.Explore { target; profile; jobs; deadlines } ->
      with_target target profile (fun key slif ->
          match deadlines_of deadlines with
          | Error _ as e -> e
          | Ok ds ->
              let jobs =
                match jobs with Some j when j >= 1 -> j | Some _ | None -> env.x_cfg.jobs
              in
              let constraints = Ops.constraints_of_deadlines ds in
              let output = Ops.explore_output ~jobs ~constraints slif in
              Ok [ ("key", J.String key); ("output", J.String output) ])
  | Protocol.Batch _ | Protocol.Stats | Protocol.Health | Protocol.Metrics
  | Protocol.Dump | Protocol.Traces _ | Protocol.Shutdown ->
      assert false

(* A failing operation is the client's problem, not the daemon's:
   report and keep serving.  Returns the response object plus the
   message to charge to the error counter (handler-level errors —
   unknown spec, bad deadline — are answers, not daemon errors). *)
let exec_obj env req =
  match fields_of_request env req with
  | Ok fields -> (Protocol.ok_obj fields, None)
  | Error msg -> (Protocol.error_obj msg, None)
  | exception Typed_error (kind, msg) ->
      (* An admission-control rejection is an answer, not a daemon
         error: typed so clients can dispatch on "kind". *)
      (Protocol.error_obj ~kind msg, None)
  | exception e ->
      let msg = exn_message e in
      (Protocol.error_obj msg, Some msg)

(* A request's one interval: stamped by the caller at [t0_ns] (before
   the line is parsed), closed here once the op has run, as the
   [server.request.<op>] span that the op's own spans parent under.  The
   duration it returns (in microseconds) is the request's latency. *)
let request_span ~t0_ns op f =
  let name = "server.request." ^ op in
  let parent = Obs.Flight.current_span () in
  let id = if Obs.Flight.on () then Obs.Flight.next_id () else 0 in
  let close () =
    float_of_int
      (Obs.Span.record ?trace:(Obs.Flight.current_trace ())
         ?id:(if id = 0 then None else Some id)
         ~parent ~hist:("span." ^ name) ~t0_ns name)
    /. 1e3
  in
  match Obs.Flight.with_causality ~parent:id f with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

let since_us t0_ns = float_of_int (Int64.to_int (Obs.Clock.now_ns ()) - t0_ns) /. 1e3

(* One batch slot: its own span, its own timing, its own error
   isolation — a malformed or failing item never touches its
   neighbours. *)
let exec_item env item =
  let t0_ns = Int64.to_int (Obs.Clock.now_ns ()) in
  match item with
  | Error msg ->
      ( Protocol.error_obj msg,
        { a_op = "malformed"; a_wire = false; a_dur_us = since_us t0_ns; a_err = Some msg } )
  | Ok req ->
      let op = Protocol.op_name req in
      let (obj, err), dur_us = request_span ~t0_ns op (fun () -> exec_obj env req) in
      (obj, { a_op = op; a_wire = false; a_dur_us = dur_us; a_err = err })

let execute env job =
  let module J = Obs.Json in
  let t0_ns = Int64.to_int (Obs.Clock.now_ns ()) in
  match
    Protocol.request_of_line ~max_batch_items:env.x_cfg.max_batch_items job.jb_line
  with
  | Error msg ->
      Resp
        ( Protocol.error msg,
          [
            { a_op = "malformed"; a_wire = true; a_dur_us = since_us t0_ns; a_err = Some msg };
          ] )
  | Ok req when Protocol.is_control req -> Control req
  | Ok (Protocol.Batch items) ->
      let pairs, dur_us =
        request_span ~t0_ns "batch" (fun () -> List.map (exec_item env) items)
      in
      let resp =
        Protocol.ok
          [
            ("count", J.Int (List.length pairs));
            ("results", J.List (List.map fst pairs));
          ]
      in
      let wire = { a_op = "batch"; a_wire = true; a_dur_us = dur_us; a_err = None } in
      Resp (resp, wire :: List.map snd pairs)
  | Ok req ->
      let op = Protocol.op_name req in
      let (obj, err), dur_us = request_span ~t0_ns op (fun () -> exec_obj env req) in
      Resp (J.to_string obj, [ { a_op = op; a_wire = true; a_dur_us = dur_us; a_err = err } ])

let response_is_ok response =
  String.length response >= 10 && String.sub response 0 10 = {|{"ok":true|}

(* --- Tail-based trace retention --------------------------------------------

   Every request writes its spans into the flight window for free; only
   when the completion turns out slow (over [--slow-ms]) or failing does
   the acceptor reconstruct the cross-domain span tree from the window
   and keep it — bounded in memory by [retain_traces], mirrored to
   [trace_dir] when set.  Fast requests never pay more than the ring
   writes. *)

(* One flight record as JSON, timestamps rebased to the tree's oldest
   record so a retained trace is self-contained. *)
let span_json t0 (r : Obs.Flight.record) =
  let module J = Obs.Json in
  J.Obj
    [
      ("name", J.String r.Obs.Flight.fr_name);
      ( "kind",
        J.String
          (match r.Obs.Flight.fr_kind with
          | Obs.Flight.Span -> "span"
          | Obs.Flight.Event -> "event"
          | Obs.Flight.Counter -> "counter") );
      ("dom", J.Int r.Obs.Flight.fr_dom);
      ("id", J.Int r.Obs.Flight.fr_id);
      ("parent", J.Int r.Obs.Flight.fr_parent);
      ("ts_ns", J.Int (r.Obs.Flight.fr_ts_ns - t0));
      ("dur_ns", J.Int r.Obs.Flight.fr_dur_ns);
    ]

let retained_summary rt =
  let module J = Obs.Json in
  J.Obj
    [
      ("id", J.String rt.rt_id);
      ("reason", J.String rt.rt_reason);
      ("op", J.String rt.rt_op);
      ("dur_us", J.Float rt.rt_dur_us);
      ("spans", J.Int rt.rt_spans);
    ]

let retain_trace st ~tid ~op ~dur_us ~reason =
  let module J = Obs.Json in
  match Obs.Flight.by_trace tid with
  | [] -> () (* the window already wrapped past this request *)
  | first :: _ as records ->
      let t0 = first.Obs.Flight.fr_ts_ns in
      let json =
        J.Obj
          [
            ("id", J.String tid);
            ("reason", J.String reason);
            ("op", J.String op);
            ("dur_us", J.Float dur_us);
            ("spans", J.List (List.map (span_json t0) records));
          ]
      in
      let file =
        match st.cfg.trace_dir with
        | None -> None
        | Some dir -> (
            (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
             with Unix.Unix_error _ -> ());
            let path = Filename.concat dir (tid ^ ".json") in
            try
              J.write_file path json;
              Some path
            with Sys_error _ -> None)
      in
      Queue.add
        {
          rt_id = tid;
          rt_reason = reason;
          rt_op = op;
          rt_dur_us = dur_us;
          rt_spans = List.length records;
          rt_json = json;
          rt_file = file;
        }
        st.retained;
      st.retained_total <- st.retained_total + 1;
      Obs.Counter.incr "server.flight.retained";
      while Queue.length st.retained > max 0 st.cfg.retain_traces do
        let old = Queue.pop st.retained in
        match old.rt_file with
        | Some p -> ( try Sys.remove p with Sys_error _ -> ())
        | None -> ()
      done

(* Retention decision for one drained completion: errors always keep
   their trace; slow requests keep theirs when [--slow-ms] is set. *)
let retain_reason st ~dur_us ~ok =
  if not ok then Some "error"
  else
    match st.cfg.slow_ms with
    | Some limit when dur_us /. 1e3 >= limit -> Some "slow"
    | Some _ | None -> None

(* The request event and the slow-request log, shared by workers (for
   executed requests) and the acceptor (for control ops). *)
let emit_request_event cfg tid op dur_us ok =
  Obs.Event.emit "server.request"
    ~fields:
      [
        ("op", Obs.Json.String op);
        ("dur_us", Obs.Json.Float dur_us);
        ("ok", Obs.Json.Bool ok);
      ];
  match cfg.slow_ms with
  | Some limit when dur_us /. 1e3 >= limit ->
      Obs.Counter.incr "server.slow_request";
      Obs.Event.emit ~level:Obs.Event.Warn "server.slow_request"
        ~fields:
          [
            ("op", Obs.Json.String op);
            ("dur_ms", Obs.Json.Float (dur_us /. 1e3));
            ("limit_ms", Obs.Json.Float limit);
          ];
      Printf.eprintf "slif serve: slow request %s op=%s %.1f ms (limit %.1f ms)\n%!" tid op
        (dur_us /. 1e3) limit
  | Some _ | None -> ()

let wake sh =
  try ignore (Unix.write_substring sh.wake_w "x" 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _) ->
    ()

(* One worker domain: park on the job queue, execute under the job's
   trace id, push the completion and poke the acceptor's self-pipe.
   Workers never touch acceptor-owned accounting — it rides back on the
   completion. *)
let worker_loop sh env w =
  let rec go () =
    Mutex.lock sh.jq_lock;
    while Queue.is_empty sh.jq && not sh.jq_stop do
      Condition.wait sh.jq_cond sh.jq_lock
    done;
    if Queue.is_empty sh.jq then Mutex.unlock sh.jq_lock
    else begin
      let job = Queue.pop sh.jq in
      Mutex.unlock sh.jq_lock;
      (* The queue wait as a span on the worker's lane, parented under
         the root the acceptor minted — the first cross-domain edge of
         the request tree. *)
      let wait_ns =
        Obs.Span.record ~trace:job.jb_tid ~parent:job.jb_root ~t0_ns:job.jb_enq_ns
          "server.queue_wait"
      in
      let out =
        Obs.Flight.with_causality ~trace:job.jb_tid ~parent:job.jb_root @@ fun () ->
        let out =
          match execute env job with
          | out -> out
          | exception e ->
              (* [execute] guards each op; this is the last-ditch net
                 under the parser itself. *)
              let msg = exn_message e in
              Resp
                ( Protocol.error msg,
                  [ { a_op = "malformed"; a_wire = true; a_dur_us = 0.0; a_err = Some msg } ]
                )
        in
        (match out with
        | Resp (resp, { a_op; a_dur_us; _ } :: _) ->
            emit_request_event env.x_cfg job.jb_tid a_op a_dur_us (response_is_ok resp)
        | Resp (_, []) | Control _ -> ());
        out
      in
      Mutex.protect sh.cq_lock (fun () ->
          Queue.add
            {
              cp_cid = job.jb_cid;
              cp_seq = job.jb_seq;
              cp_tid = job.jb_tid;
              cp_root = job.jb_root;
              cp_enq_ns = job.jb_enq_ns;
              cp_worker = w;
              cp_wait_us = float_of_int wait_ns /. 1e3;
              cp_out = out;
            }
            sh.cq);
      wake sh;
      go ()
    end
  in
  go ()

(* --- Control ops (acceptor side) ------------------------------------------- *)

(* Stats, health, metrics and shutdown read (or flip) acceptor-owned
   accounting, so the acceptor renders them itself when the completion
   drains — single-threaded, no locks, and still at the request's wire
   position so per-connection ordering holds. *)
let render_control st ~tid ~root req =
  let module J = Obs.Json in
  Obs.Flight.with_causality ~trace:tid ~parent:root @@ fun () ->
  let t0_ns = Int64.to_int (Obs.Clock.now_ns ()) in
  let op = Protocol.op_name req in
  let resp, dur_us =
    request_span ~t0_ns op @@ fun () ->
    match req with
    | Protocol.Stats -> Protocol.ok (Telemetry.stats (snapshot st))
    | Protocol.Health -> Protocol.ok (Telemetry.health (snapshot st))
    | Protocol.Metrics ->
        Protocol.ok [ ("output", J.String (Telemetry.prometheus (snapshot st))) ]
    | Protocol.Dump ->
        (* The whole flight window as a Chrome trace_event string —
           what [slif trace --export] saves. *)
        let chrome = J.to_string (Obs.Flight.to_chrome ()) in
        st.dump_bytes <- st.dump_bytes + String.length chrome;
        Obs.Counter.add "server.flight.dump_bytes" (String.length chrome);
        Protocol.ok
          [
            ("output", J.String chrome);
            ("records", J.Int (Obs.Flight.records_total ()));
            ("dropped", J.Int (Obs.Flight.dropped_total ()));
            ("flight", Telemetry.flight (snapshot st));
          ]
    | Protocol.Traces None ->
        let summaries =
          Queue.fold (fun acc rt -> retained_summary rt :: acc) [] st.retained
          |> List.rev
        in
        Protocol.ok
          [
            ("count", J.Int (List.length summaries));
            ("retained_total", J.Int st.retained_total);
            ("traces", J.List summaries);
          ]
    | Protocol.Traces (Some id) -> (
        let found =
          Queue.fold (fun acc rt -> if rt.rt_id = id then Some rt else acc) None st.retained
        in
        match found with
        | Some rt -> Protocol.ok [ ("trace", rt.rt_json) ]
        | None ->
            Protocol.error ~kind:"trace_not_retained"
              (Printf.sprintf "trace %S is not retained (kept: last %d slow/error traces)"
                 id st.cfg.retain_traces))
    | Protocol.Shutdown ->
        st.stop <- true;
        Protocol.ok [ ("bye", J.Bool true) ]
    | Protocol.Load _ | Protocol.Estimate _ | Protocol.Partition _ | Protocol.Explore _
    | Protocol.Batch _ ->
        assert false
  in
  emit_request_event st.cfg tid op dur_us (response_is_ok resp);
  (resp, { a_op = op; a_wire = true; a_dur_us = dur_us; a_err = None })

(* --- Event loop (acceptor) -------------------------------------------------- *)

let listen_socket addr =
  match addr with
  | Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      if Sys.file_exists path then Unix.unlink path;
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      fd

(* A reply must hit the wire when it is written, not when the client's
   next request happens to ACK the previous segment (Nagle against
   delayed ACK), so TCP connections get TCP_NODELAY.  Unix-domain
   sockets have no such option. *)
let accept listen_fd =
  let fd, peer = Unix.accept listen_fd in
  (match peer with
  | Unix.ADDR_INET _ -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Unix.ADDR_UNIX _ -> ());
  (fd, peer)

(* How long the listening socket sits out [select] after [accept] ran
   out of descriptors, unless a connection closes first. *)
let accept_backoff_us = 100_000.0

let close_conn st conns c =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  (* A freed descriptor is what an accept that ran out of them waits for. *)
  st.accept_resume_us <- 0.0;
  let before = List.length !conns in
  conns := List.filter (fun c' -> c'.fd != c.fd) !conns;
  st.inflight <- st.inflight - (before - List.length !conns)

let outq_bytes c = Buffer.length c.out - c.out_off

(* Backpressure: a reader this far behind is never catching up.  Stop
   queueing for it, answer with one protocol error, and close once that
   line flushes — the daemon's memory is not the client's buffer. *)
let overflow st c =
  c.dropping <- true;
  c.close_after_flush <- true;
  st.outq_overflows <- st.outq_overflows + 1;
  Obs.Counter.incr "server.outq_overflow";
  let msg =
    Printf.sprintf "slow reader: %d unread response bytes exceed the %d-byte cap; closing"
      (outq_bytes c) st.cfg.max_outq_bytes
  in
  note_error st msg;
  Buffer.add_string c.out (Protocol.error msg);
  Buffer.add_char c.out '\n'

(* Move consecutive completed responses into the write buffer.  Workers
   finish out of order; the wire never shows it. *)
let rec flush_ready st c =
  match Hashtbl.find_opt c.pending c.next_flush with
  | None -> ()
  | Some resp ->
      Hashtbl.remove c.pending c.next_flush;
      c.next_flush <- c.next_flush + 1;
      if c.dropping then st.dropped_responses <- st.dropped_responses + 1
      else begin
        Buffer.add_string c.out resp;
        Buffer.add_char c.out '\n';
        if outq_bytes c > st.cfg.max_outq_bytes then overflow st c
      end;
      flush_ready st c

(* An acceptor-generated response (the line cap's error) still
   takes a sequence number, so it interleaves correctly with whatever
   the connection already has in flight. *)
let local_response st c resp =
  let seq = c.next_seq in
  c.next_seq <- seq + 1;
  Hashtbl.replace c.pending seq resp;
  flush_ready st c

let dispatch st c line =
  st.next_req <- st.next_req + 1;
  let seq = c.next_seq in
  c.next_seq <- seq + 1;
  (* The trace id names the connection and the request; every span and
     event-log line emitted while serving it carries the id.  The root
     flight span id minted here is the causality anchor: the worker
     parents its queue-wait and execution spans under it, and the
     acceptor closes it when the completion drains. *)
  let tid = Printf.sprintf "c%d-r%d" c.cid st.next_req in
  let root = Obs.Flight.next_id () in
  let enq_ns = Int64.to_int (Obs.Clock.now_ns ()) in
  (* The accept marker: dispatch instant on the acceptor's lane. *)
  Obs.Flight.record_span ~trace:tid ~id:(Obs.Flight.next_id ()) ~parent:root
    ~name:"server.accept" ~t0_ns:enq_ns ~dur_ns:0 ();
  st.jobs_inflight <- st.jobs_inflight + 1;
  let job =
    { jb_cid = c.cid; jb_seq = seq; jb_tid = tid; jb_root = root; jb_line = line;
      jb_enq_ns = enq_ns }
  in
  Mutex.protect st.sh.jq_lock (fun () ->
      Queue.add job st.sh.jq;
      Condition.signal st.sh.jq_cond)

(* Frame complete lines out of the connection's read buffer and hand
   them to the workers. *)
let process_buffer st c =
  let continue = ref true in
  while !continue do
    let text = Buffer.contents c.rbuf in
    match String.index_opt text '\n' with
    | None ->
        if Buffer.length c.rbuf > st.cfg.max_line_bytes then begin
          (* Answer with a well-formed protocol error, then close once
             the response has flushed — never buffer without bound. *)
          note_error st "request line over the byte cap";
          Obs.Counter.incr "server.line_cap";
          Buffer.clear c.rbuf;
          local_response st c
            (Protocol.error
               (Printf.sprintf "request line exceeds the %d-byte cap"
                  st.cfg.max_line_bytes));
          c.close_after_flush <- true
        end;
        continue := false
    | Some nl ->
        let line = String.sub text 0 nl in
        Buffer.clear c.rbuf;
        Buffer.add_substring c.rbuf text (nl + 1) (String.length text - nl - 1);
        let line =
          (* Tolerate CRLF clients. *)
          if String.length line > 0 && line.[String.length line - 1] = '\r' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        if String.trim line <> "" then dispatch st c line
  done

(* A connection may close only after everything it was owed has been
   written (or deliberately dropped). *)
let flushed_out c = outq_bytes c = 0 && (c.dropping || c.next_flush = c.next_seq)

let try_read st conns c =
  let chunk = Bytes.create 65536 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> close_conn st conns c
  | n ->
      Buffer.add_subbytes c.rbuf chunk 0 n;
      process_buffer st c
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn st conns c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let try_write st conns c =
  let len = outq_bytes c in
  if len = 0 then begin
    if c.close_after_flush && flushed_out c then close_conn st conns c
  end
  else
    match Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len with
    | n ->
        c.out_off <- c.out_off + n;
        if c.out_off >= Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_off <- 0;
          if c.close_after_flush && flushed_out c then close_conn st conns c
        end
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn st conns c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* Pull every queued completion, account it, and slot its response at
   the connection's wire position. *)
let drain_completions st conns =
  let comps =
    Mutex.protect st.sh.cq_lock (fun () ->
        let l = List.of_seq (Queue.to_seq st.sh.cq) in
        Queue.clear st.sh.cq;
        l)
  in
  List.iter
    (fun cp ->
      st.jobs_inflight <- st.jobs_inflight - 1;
      if cp.cp_worker >= 0 && cp.cp_worker < Array.length st.worker_served then
        st.worker_served.(cp.cp_worker) <- st.worker_served.(cp.cp_worker) + 1;
      Obs.Histogram.record st.queue_wait cp.cp_wait_us;
      let resp, op, dur_us =
        match cp.cp_out with
        | Resp (resp, accts) ->
            List.iter (account st) accts;
            let op, dur_us =
              match accts with a :: _ -> (a.a_op, a.a_dur_us) | [] -> ("?", 0.0)
            in
            (resp, op, dur_us)
        | Control req ->
            let resp, a = render_control st ~tid:cp.cp_tid ~root:cp.cp_root req in
            account st a;
            (resp, a.a_op, a.a_dur_us)
      in
      (match st.cfg.max_requests with
      | Some limit when st.served >= limit -> st.stop <- true
      | _ -> ());
      (* Mark the response write, close the request's root span
         (dispatch → response framed) into the flight window, then
         decide retention: slow or failing completions keep their whole
         cross-domain tree, fast ones paid only the ring writes. *)
      if Obs.Flight.on () then begin
        let dur_ns =
          Obs.Span.record ~trace:cp.cp_tid ~id:cp.cp_root ~parent:0 ~t0_ns:cp.cp_enq_ns
            "server.request"
        in
        Obs.Flight.record_span ~trace:cp.cp_tid ~id:(Obs.Flight.next_id ())
          ~parent:cp.cp_root ~name:"server.respond" ~t0_ns:(cp.cp_enq_ns + dur_ns) ~dur_ns:0 ();
        match retain_reason st ~dur_us ~ok:(response_is_ok resp) with
        | Some reason -> retain_trace st ~tid:cp.cp_tid ~op ~dur_us ~reason
        | None -> ()
      end;
      match List.find_opt (fun c -> c.cid = cp.cp_cid) !conns with
      | Some c ->
          Hashtbl.replace c.pending cp.cp_seq resp;
          flush_ready st c
      | None ->
          (* The connection died while its request ran. *)
          st.dropped_responses <- st.dropped_responses + 1)
    comps

(* SIGUSR1 just raises a flag; the loop notices on its next wake-up (the
   signal interrupts a pending select with EINTR, so the dump is prompt)
   and writes the telemetry dump outside the handler. *)
let dump_requested = Atomic.make false

(* SIGQUIT is the black-box eject button: same flag discipline, but the
   loop answers by writing the whole flight window as a Chrome
   trace_event file and keeps serving. *)
let flight_dump_requested = Atomic.make false

(* Write the flight window to [slif-flight-<pid>.json] under the trace
   dir (or the system temp dir) — the SIGQUIT path, and the last act
   before an acceptor crash propagates.  Never raises: a black box that
   can take the process down is worse than no black box. *)
let write_flight_dump st ~reason =
  try
    let dir =
      match st.cfg.trace_dir with Some d -> d | None -> Filename.get_temp_dir_name ()
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error _ | Sys_error _ -> ());
    let path =
      Filename.concat dir (Printf.sprintf "slif-flight-%d.json" (Unix.getpid ()))
    in
    let chrome = Obs.Flight.to_chrome () in
    let text = Obs.Json.to_string chrome in
    st.dump_bytes <- st.dump_bytes + String.length text;
    Obs.Counter.add "server.flight.dump_bytes" (String.length text);
    Obs.Json.write_file path chrome;
    Printf.eprintf "slif serve: flight dump (%s) -> %s (%d bytes)\n%!" reason path
      (String.length text)
  with _ -> ()

let run ?on_ready cfg =
  (* A client closing mid-response must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let prev_usr1 =
    try
      Some
        (Sys.signal Sys.sigusr1
           (Sys.Signal_handle (fun _ -> Atomic.set dump_requested true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let prev_quit =
    try
      Some
        (Sys.signal Sys.sigquit
           (Sys.Signal_handle (fun _ -> Atomic.set flight_dump_requested true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let workers = max 1 cfg.workers in
  let conn_cap =
    min default_max_connections (Option.value cfg.max_connections ~default:max_int)
  in
  let cfg = { cfg with workers; max_connections = Some conn_cap } in
  let listen_fd = listen_socket cfg.addr in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let sh =
    {
      jq_lock = Mutex.create ();
      jq_cond = Condition.create ();
      jq = Queue.create ();
      jq_stop = false;
      cq_lock = Mutex.create ();
      cq = Queue.create ();
      wake_w;
    }
  in
  let st =
    {
      cfg;
      lru = locked ~capacity:cfg.lru_capacity;
      sh;
      started_us = Obs.Clock.now_us ();
      served = 0;
      errors = 0;
      next_req = 0;
      inflight = 0;
      jobs_inflight = 0;
      outq_overflows = 0;
      dropped_responses = 0;
      rejected_conns = 0;
      worker_served = Array.make workers 0;
      queue_wait = Obs.Histogram.create ();
      last_error = None;
      lat = Hashtbl.create 8;
      select_idle_us = 0.0;
      loop_iters = 0;
      accept_errors = 0;
      accept_resume_us = 0.0;
      retained = Queue.create ();
      retained_total = 0;
      dump_bytes = 0;
      stop = false;
    }
  in
  List.iter (fun op -> ignore (lat_for st op)) known_ops;
  let env =
    {
      x_cfg = cfg;
      x_lru = st.lru;
      x_stores = locked ~capacity:store_handle_capacity;
    }
  in
  (* The worker fleet: one domain per worker, parked on the job queue
     until shutdown. *)
  let fleet = List.init workers (fun w -> Domain.spawn (fun () -> worker_loop sh env w)) in
  (match on_ready with Some f -> f (Unix.getsockname listen_fd) | None -> ());
  Obs.Event.emit "server.start"
    ~fields:
      [
        ( "addr",
          Obs.Json.String
            (match cfg.addr with Unix_sock p -> p | Tcp p -> Printf.sprintf "tcp:%d" p)
        );
        ("workers", Obs.Json.Int workers);
      ];
  let next_cid = ref 0 in
  let conns = ref [] in
  let pending_work () =
    st.jobs_inflight > 0
    || List.exists (fun c -> outq_bytes c > 0 || Hashtbl.length c.pending > 0) !conns
  in
  (try
     while (not st.stop) || pending_work () do
    if Atomic.get dump_requested then begin
      Atomic.set dump_requested false;
      prerr_string (Telemetry.dump (snapshot st));
      flush stderr
    end;
    if Atomic.get flight_dump_requested then begin
      Atomic.set flight_dump_requested false;
      write_flight_dump st ~reason:"SIGQUIT"
    end;
    drain_completions st conns;
    let backoff_s = (st.accept_resume_us -. Obs.Clock.now_us ()) /. 1e6 in
    let reads =
      if st.stop then [ wake_r ]
      else
        let conn_reads =
          List.filter_map (fun c -> if c.close_after_flush then None else Some c.fd) !conns
        in
        if backoff_s > 0.0 then wake_r :: conn_reads else wake_r :: listen_fd :: conn_reads
    in
    let writes =
      List.filter_map
        (fun c -> if outq_bytes c > 0 || c.close_after_flush then Some c.fd else None)
        !conns
    in
    st.loop_iters <- st.loop_iters + 1;
    let sel_t0 = Obs.Clock.now_us () in
    let timeout = if backoff_s > 0.0 then Float.min backoff_s 0.2 else 0.2 in
    let sel =
      match Unix.select reads writes [] timeout with
      | r -> Some r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
    in
    (* Blocking in select with nothing ready is the acceptor's idle
       time, for the metrics scrape. *)
    (match sel with
    | Some ([], [], _) | None ->
        st.select_idle_us <- st.select_idle_us +. (Obs.Clock.now_us () -. sel_t0)
    | Some _ -> ());
    match sel with
    | None -> ()
    | Some (readable, writable, _) ->
        if List.memq wake_r readable then begin
          let buf = Bytes.create 256 in
          let rec drain () =
            match Unix.read wake_r buf 0 (Bytes.length buf) with
            | n when n > 0 -> drain ()
            | _ -> ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          in
          drain ()
        end;
        if List.memq listen_fd readable then begin
          match accept listen_fd with
          | fd, _ when st.inflight >= conn_cap ->
              (* Refused before it is ever polled: one best-effort
                 nonblocking write of the typed refusal, then close. *)
              st.rejected_conns <- st.rejected_conns + 1;
              Obs.Counter.incr "server.conn_rejected";
              let line =
                Protocol.error ~kind:"connection_limit"
                  (Printf.sprintf "connection limit reached (%d)" conn_cap)
                ^ "\n"
              in
              (try
                 Unix.set_nonblock fd;
                 ignore (Unix.write_substring fd line 0 (String.length line))
               with Unix.Unix_error _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ())
          | fd, _ ->
              incr next_cid;
              st.inflight <- st.inflight + 1;
              let c =
                {
                  fd;
                  cid = !next_cid;
                  rbuf = Buffer.create 1024;
                  out = Buffer.create 1024;
                  out_off = 0;
                  close_after_flush = false;
                  dropping = false;
                  next_seq = 0;
                  next_flush = 0;
                  pending = Hashtbl.create 8;
                }
              in
              conns := c :: !conns
          | exception Unix.Unix_error (err, _, _) ->
              (* Out of descriptors, the pending connection stays queued
                 and the listening socket stays readable, so polling it
                 again at once would spin: it sits out [select] for a
                 back-off or until a connection closes. *)
              st.accept_errors <- st.accept_errors + 1;
              if err = Unix.EMFILE || err = Unix.ENFILE then
                st.accept_resume_us <- Obs.Clock.now_us () +. accept_backoff_us
        end;
        List.iter
          (fun c -> if List.memq c.fd readable then try_read st conns c)
          (List.filter (fun c -> c.fd != listen_fd) !conns);
        List.iter (fun c -> if List.memq c.fd writable then try_write st conns c) !conns
     done
   with e ->
     (* The acceptor dying is exactly what the black box exists for:
        dump the window, then let the crash propagate. *)
     write_flight_dump st ~reason:(Printexc.to_string e);
     raise e);
  drain_completions st conns;
  (* Stop the workers: flag, wake everyone, join them. *)
  Mutex.protect sh.jq_lock (fun () ->
      sh.jq_stop <- true;
      Condition.broadcast sh.jq_cond);
  List.iter Domain.join fleet;
  Obs.Event.emit "server.stop"
    ~fields:
      [ ("requests", Obs.Json.Int st.served); ("errors", Obs.Json.Int st.errors) ];
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  (match prev_usr1 with
  | Some behavior -> ( try Sys.set_signal Sys.sigusr1 behavior with Invalid_argument _ -> ())
  | None -> ());
  (match prev_quit with
  | Some behavior -> ( try Sys.set_signal Sys.sigquit behavior with Invalid_argument _ -> ())
  | None -> ());
  match cfg.addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()
