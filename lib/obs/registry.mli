(** Process-global counter and histogram state, domain-safe.

    One registry per process: a master switch and, per domain that ever
    probed, a private cell of counter/histogram tables.  Probes touch
    only their own domain's cell (reached through [Domain.DLS], never a
    lock), so the instrumented hot paths stay race-free when they run
    inside a {!Slif_util.Pool} worker; exporters merge the cells at read
    time.  Everything funnels through {!on} first, so a disabled
    registry costs exactly one atomic [bool] load and branch per probe
    (target: <5% overhead on [bench/main.ml]; measured in its A6
    section).

    Spans are not stored here: {!Flight}, which sits below this module,
    is the one span store, and {!push_event} forwards into it.  The
    switch decides whether {!Span.with_} also feeds a duration
    histogram.

    Merge semantics: counters sum across domains; histograms combine
    count/sum/min/max and buckets.  Cells follow the {!Slots} lifecycle:
    an exited domain's cell stays readable until 16 more domains have
    exited, then its contents move into a retired total that every
    merged reader adds in and the cell is dropped.  {!enable},
    {!disable}, {!reset} and the exporters are meant to be called from
    quiescent points (no concurrent probes), as the CLI and bench
    drivers do. *)

val on : unit -> bool
(** True when recording is enabled.  Every probe in {!Counter},
    {!Histogram} and {!Span} checks this first and is a no-op when it is
    false. *)

val enable : unit -> unit
(** Turn recording on.  The first call pins the epoch {!span_event}
    timestamps are relative to. *)

val disable : unit -> unit
(** Turn recording off; accumulated data is kept for export. *)

val reset : unit -> unit
(** Zero every domain's counters and histograms and the retired total,
    empty the {!Flight} rings and re-pin the epoch — so "reset, run,
    export" exports just the run.  Does not change the enabled flag. *)

(** {2 Internal surface used by the sibling modules} *)

type span_event = {
  ev_name : string;
  ev_ts_ns : int64;  (** start, relative to the epoch *)
  ev_dur_ns : int64;
  ev_depth : int;  (** ignored: nesting is carried by parent ids *)
  ev_dom : int;  (** ignored: the span lands in the calling domain's ring *)
  ev_args : (string * string) list;
}

val epoch_ns : unit -> int64

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
      (** log-spaced observation counts; the geometry (base, offset,
          width) is owned by {!Histogram} *)
}

val new_cell : unit -> int array
(** A fresh zeroed padded counter cell.  The live value sits in slot 0;
    the rest is padding so a cell owns its cache lines outright and a
    domain bumping its counter never invalidates a line another domain's
    counter lives on (the false-sharing fix the scaling work needed). *)

type local = {
  dom : int;  (** [Domain.self] of the owning domain; -1 for merged totals *)
  counters : (string, int array) Hashtbl.t;
      (** padded cells ({!new_cell}, value in slot 0); zeroed in
          place by {!reset}, so resolved {!Counter.cell} handles
          survive *)
  hists : (string, hist) Hashtbl.t;
}

val local : unit -> local
(** The calling domain's cell, claimed on first use. *)

val cells : (local, local) Slots.t
(** Every domain's cell; the retired total ([dom] -1) holds what
    retired cells held. *)

val absorb_hist : hist -> hist -> unit
(** [absorb_hist into h] adds [h]'s observations to [into]. *)

val merged : unit -> local
(** Every cell and the retired total merged by name into a fresh
    [local] ([dom] -1); counters reading 0 are left out. *)

val push_event : local -> span_event -> unit
(** Record a span the caller timed itself (an asynchronous request, say)
    in the calling domain's {!Flight} ring: absolute start
    [epoch_ns () + ev_ts_ns], a fresh id, the ambient parent span and
    trace id, and [ev_args]. *)

val set_max_events : int -> unit
(** {!Flight.set_capacity}: size every domain's span ring. *)
