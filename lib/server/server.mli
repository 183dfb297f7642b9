(** The [slif serve] daemon: one acceptor, N worker domains.

    The acceptor owns the sockets — a select-multiplexed loop that
    accepts connections, frames newline-delimited JSON request lines and
    writes responses — and dispatches every framed line to a fixed pool
    of worker domains over a condition-parked job queue.  Workers
    execute requests against the shared sharded {!Lru} (content-hash
    keyed, one lock per shard) and push completions back through a queue
    plus a self-pipe that wakes the acceptor's select.  Each connection
    carries sequence numbers and a reorder buffer, so responses hit the
    wire in request order no matter which worker finishes first; control
    ops ([stats]/[health]/[metrics]/[shutdown]) are rendered by the
    acceptor itself — which owns all accounting, lock-free — at their
    wire position.  A [batch] request executes its items on one worker
    with per-item error isolation and in-order results.

    Hardening: any malformed line or failing operation becomes an error
    response; a request line over {!field-config.max_line_bytes} earns a
    protocol error before the connection is closed; a reader whose
    unwritten responses exceed {!field-config.max_outq_bytes} is sent
    one [slow reader] protocol error and disconnected instead of growing
    the heap; {!field-config.max_connections} bounds concurrent clients;
    and the loop survives client disconnects mid-request.  On shutdown
    (the [shutdown] op or {!field-config.max_requests}) in-flight
    requests drain and their responses flush before the sockets close.

    Observability: every request is assigned a trace id
    ([c<conn>-r<serial>]) installed via {!Slif_obs.Flight.with_causality}
    on the worker that executes it, so the [server.request.<op>] span
    and every {!Slif_obs.Event} line emitted while serving it share the
    id.  Per-op latency is recorded in always-on lifetime histograms
    plus a sliding window; every control op samples the daemon into one
    {!Telemetry.t} and renders [stats], [health] or [metrics] from it,
    regardless of the registry switch.  Requests slower than [slow_ms]
    are logged to stderr and the event log at [Warn]; [SIGUSR1] writes
    the [stats] reply to stderr ({!Telemetry.dump}) without stopping
    the loop.

    The flight recorder is the black box: every span and event also
    lands in {!Slif_obs.Flight}'s always-on per-domain rings, and any
    request that errors or outlives [slow_ms] has its cross-domain
    span tree reconstructed at completion and retained (bounded by
    {!field-config.retain_traces}, mirrored to
    {!field-config.trace_dir} when set).  The [dump] op exports the
    whole window as Chrome [trace_event] JSON, [traces] lists or
    fetches retained trees, [SIGQUIT] (or an acceptor crash) writes
    the window to a dump file without stopping the loop. *)

type addr =
  | Unix_sock of string  (** path of a Unix-domain socket (created; stale file replaced) *)
  | Tcp of int  (** loopback TCP port; 0 picks a free port *)

type config = {
  addr : addr;
  cache_dir : string option;  (** persist annotated graphs here too *)
  lru_capacity : int;
  lru_shards : int;  (** shards of the resident set (locks scale with this) *)
  workers : int;  (** worker domains executing requests (min 1) *)
  jobs : int;  (** domain-pool width for [explore] requests without their own ["jobs"] *)
  max_requests : int option;  (** stop after this many requests (soak/smoke harnesses) *)
  slow_ms : float option;
      (** log requests at least this slow to stderr and the event log *)
  max_line_bytes : int;
      (** request lines over this earn a protocol error and a close *)
  max_batch_items : int;  (** cap on one [batch] request's item count *)
  max_outq_bytes : int;
      (** unread response bytes per connection before the slow reader is
          disconnected with a protocol error *)
  max_connections : int option;
      (** concurrent connections, clamped to {!default_max_connections}
          ([None] means that cap); an extra connection is answered with
          one error of kind ["connection_limit"] and closed at once *)
  max_graph_mb : int option;
      (** admission control for store-file targets: reject (typed error
          kind ["graph_too_large"]) any load whose decoded graph would
          exceed this many megabytes — META's decoded-heap estimate for
          a v2 container, the file size for a v1 one.  Metadata-only
          [load]s of v2 containers are always admitted: they decode
          nothing. *)
  retain_traces : int;
      (** how many slow/error span trees the tail-based retention keeps
          (oldest evicted); 0 disables retention without touching the
          flight recorder itself *)
  trace_dir : string option;
      (** also persist each retained trace as
          [<dir>/trace-<id>.json], and write SIGQUIT/crash flight dumps
          here (default: the system temp dir) *)
}

val default_max_line_bytes : int
(** 64 MB. *)

val default_max_outq_bytes : int
(** 32 MB. *)

val default_max_connections : int
(** 1000: every polled fd stays below [select]'s FD_SETSIZE of 1024. *)

val default_config : addr -> config
(** lru_capacity 8 over 8 shards, 1 worker, jobs 1, no cache dir, no
    request limit, no slow-log, 64 MB line cap, 4096 batch items, 32 MB
    outq cap, {!default_max_connections} connections, no graph budget,
    32 retained traces, no trace dir. *)

val accept : Unix.file_descr -> Unix.file_descr * Unix.sockaddr
(** Accept one connection as the daemon does: a TCP connection gets
    [TCP_NODELAY], so a reply is not held back waiting for the client's
    next request to ACK the previous one; a Unix-domain one is left as
    is. *)

val run : ?on_ready:(Unix.sockaddr -> unit) -> config -> unit
(** Bind, listen and serve until a [shutdown] request (or the request
    limit) — then drain in-flight requests, flush pending responses,
    join the worker domains, close every connection and remove the
    socket file.  [on_ready] fires once the socket is bound and
    listening (tests use it to synchronize, and to learn the port when
    [Tcp 0] picked one).  Raises [Unix.Unix_error] if the socket cannot
    be bound. *)
