(** Fixed-size domain pool for deterministic task-parallel sweeps.

    Design-space exploration scores thousands of independent (allocation x
    algorithm x seed) combinations; on OCaml 5 each combination can run on
    its own domain with zero new dependencies.  A pool lives for one sweep
    ({!with_pool}): [Specsyn.Explore.run]'s work list (the one restart
    driver), the Pareto sweep, synthetic-graph generation and the CLI's
    table fan-out.  The daemon's request workers are plain domains, not
    pool tasks, so {!global_stats} counts sweeps only.  The pool is built
    from stdlib [Domain] + [Mutex]/[Condition] only and is engineered for
    reproducibility first:

    - {!map} returns results in submission order, so the output of a sweep
      is bit-identical no matter how many domains execute it;
    - a random search gives every task a private {!Prng} derived from a
      root seed and the task's index ({!Prng.derive}), never from shared
      generator state, so its result is a pure function of
      (root seed, task index);
    - a pool of [jobs = 1] executes everything in the submitting domain —
      the serial and parallel code paths are the same code.

    The submitting domain participates in the work (a pool of [jobs = n]
    spawns [n - 1] worker domains), and tasks must therefore not block on
    each other.  A pool is meant to be driven from one domain at a time;
    concurrent {!map} calls from different domains are not supported.

    The pool is also the parallelism profiler's main probe site, one
    {!Slif_obs.Span} probe per timed interval:

    - queue wait: one submission stamp per map call, closed by each
      task as it starts — a [pool.queue_wait] flight span under the
      submitter's span, and the [pool.task_queue_wait_us] histogram;
    - task run: the [pool.task_run_us] histogram and, as self time,
      task-run attribution (no flight span: the task's own spans parent
      under the submitter's);
    - the queue mutex is the {!Slif_obs.Lockprof} lock ["pool.queue"]:
      waits to acquire it count as queue-wait, condition parks as idle;
    - attribution wall time: each worker's loop lifetime, and each map
      call from its submission stamp.

    Instrumented or not, the queue discipline is identical, so results
    never depend on whether a sweep was profiled. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what the CLI's [-j] defaults
    to. *)

val with_pool : ?jobs:int -> ?oversubscribe:bool -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] builds a pool of logical parallelism [jobs]
    (default {!default_jobs}), runs [f] on it and joins its worker
    domains — even when [f] raises.  The pool spawns at most
    [Domain.recommended_domain_count () - 1] worker domains: domains
    beyond the hardware's parallelism cannot run concurrently and only
    multiply stop-the-world GC barriers (the measured cause of parallel
    sweeps running {e slower} than serial ones on small machines).
    [jobs] keeps its full value for everything deterministic — seeds,
    chunk heuristics, {!jobs} — so results are a function of the
    requested [-j] alone, independent of the machine the sweep ran on.
    [oversubscribe] (default false) lifts the cap and spawns [jobs - 1]
    domains unconditionally — a test seam: the contention and
    cross-domain tests need more domains than a 2-vCPU host
    recommends.  Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int
(** The logical parallelism the pool was created with (including the
    submitter) — the value that drives seeds and chunk sizing. *)

val domains : t -> int
(** Domains actually executing tasks (including the submitter):
    [min jobs (recommended_domain_count)] unless the pool was created
    with [~oversubscribe:true]. *)

type global_stats = {
  g_pools_created : int;
  g_pools_live : int;  (** created minus shut down *)
  g_tasks_submitted : int;
  g_tasks_completed : int;
}

val global_stats : unit -> global_stats
(** Process-wide totals across every pool that ever existed — what the
    daemon's metrics scrape exports, since pools are transient. *)

(* --- Domain-local slots -------------------------------------------------- *)

type 'a local
(** One lazily initialized value per domain participating in the pool's
    work — the carrier of share-nothing sweep state (an engine replica
    per domain, say).  No slot is ever visible to two domains. *)

val local : (unit -> 'a) -> 'a local
(** [local init] declares a slot family.  [init] runs on first {!get}
    {e on the requesting domain} (so domain-affine resources —
    DLS-backed counter handles, estimator scratch — land on the domain
    that will use them).  An [init] that raises stores nothing: the
    exception propagates to the calling task (surfacing
    deterministically through {!map}'s lowest-index rule) and the next
    {!get} retries. *)

val get : 'a local -> 'a
(** The calling domain's slot, initializing it on first use.  Meant to be
    called from task bodies (or the submitting domain). *)

(* --- Chunking ------------------------------------------------------------- *)

val chunks : chunk:int -> int -> (int * int) list
(** [chunks ~chunk n] slices the index range [0 .. n-1] into
    [(start, len)] runs of at most [chunk] indices, in order.  Callers
    keep determinism by deriving per-index seeds ({!Prng.derive} on the
    {e index}, never on the chunk) and merging earliest-index-wins, which
    makes the outcome a pure function of [n] and the root seed —
    byte-identical for every [chunk] and every job count.  Raises
    [Invalid_argument] when [chunk < 1]. *)

val default_chunk : jobs:int -> int -> int
(** The chunk-size heuristic behind the CLI's [--chunk 0] (auto): about
    four chunks per job — [ceil (n / (4 * jobs))] clamped to [1 .. 64] —
    coarse enough to amortize queue traffic and per-chunk replica
    acquisition, fine enough that one straggler chunk cannot idle the
    other domains for long.  Depends only on [n] and the requested
    [jobs], so auto-chunked sweeps stay machine-independent. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f tasks] runs [f] on every task (in parallel when the pool
    has more than one domain) and returns the results in submission
    order.  When several tasks raise, the exception of the
    lowest-indexed failing task is re-raised after all tasks have
    settled, so failure behavior is deterministic too.

    Causality: each task runs under the submitter's ambient trace id and
    open span id (via {!Slif_obs.Flight.with_causality}), and — with
    the flight recorder on — records a [pool.queue_wait] span parented
    under the submitter's span, so a request's tree stays connected
    across the domain hop. *)
