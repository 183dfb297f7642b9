(** Per-domain GC pressure and runtime/GC pause-time profiling.

    Two independent layers:

    {b Counters} — {!sample} snapshots [Gc.quick_stat] for the calling
    domain and folds the delta since its previous sample into a
    per-domain cell (minor/major collections, minor/promoted/major
    words, compactions).  [quick_stat] reads the domain's own counters
    without stopping the world, so sampling at task boundaries costs
    well under a microsecond; the pool does it after every task and the
    daemon at every telemetry scrape, which is what puts live GC
    pressure in [slif stats --watch].  The first sample of a domain only
    pins its baseline.

    {b Pause timing} — OCaml gives no "time spent in GC" counter, but
    the runtime ships {!Runtime_events}: a per-domain ring buffer of
    timestamped begin/end events for every runtime phase (minor
    collection, major slices, ...).  {!start_timing} turns the ring on
    and {!poll} drains it, accumulating the time under top-level runtime
    phases per {e ring} domain index.  Ring indices are runtime slots
    (reused across domain lifetimes), not [Domain.self] ids, so pause
    time is reported process-wide, never per-[Domain.self];
    {!Attribution.report} spreads it over domains proportionally to
    their task time.  The ring file lives in [Filename.temp_dir_name]
    (unless [OCAML_RUNTIME_EVENTS_DIR] is already set) and the runtime
    unlinks it at exit. *)

type counts = {
  minor_collections : int;
  major_collections : int;
  compactions : int;
  forced_major_collections : int;
  minor_words : float;  (** words allocated on minor heaps *)
  promoted_words : float;
  major_words : float;  (** words allocated directly on the major heap, plus promotions *)
}

val sample : unit -> unit
(** Fold the calling domain's [Gc.quick_stat] delta into its cell (the
    first call pins the baseline).  Always on — cheap enough that task
    boundaries and telemetry scrapes call it unconditionally. *)

val counts : unit -> counts
(** Accumulated deltas merged across every sampled domain, exited ones
    included. *)

val per_domain : unit -> (int * counts) list
(** Per-domain accumulated deltas, ascending [Domain.self] id: live
    domains and the 16 most recently exited.  Cells follow the {!Slots}
    lifecycle, so an older exit's deltas count only in {!counts}. *)

val heap_words : unit -> int
(** Current major-heap size of the process ([Gc.quick_stat]), a gauge. *)

val reset : unit -> unit
(** Zero the accumulated deltas and the pause-time totals.  Baselines
    are kept, so the next {!sample} measures from now. *)

(** {2 Pause timing (runtime_events)} *)

val start_timing : unit -> bool
(** Start the runtime-events ring and the in-process cursor.  Idempotent;
    [false] when the runtime refuses (already started elsewhere with an
    incompatible configuration, or the ring file cannot be created) — in
    that case pause time simply reads 0 and the counter layer still
    works. *)

val poll : unit -> unit
(** Drain pending runtime events into the accumulated pause totals.
    Call at region boundaries (end of a sweep); a no-op when timing is
    off. *)

val gc_time_us : unit -> float
(** Total time under runtime phases since the last {!reset}, across all
    ring domains.  Requires {!poll} to be current. *)

val lost_events : unit -> int
(** Ring-overflow drops reported by the consumer — nonzero means the
    pause totals undercount. *)
