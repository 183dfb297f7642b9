(** The span store: per-domain fixed-size rings of compact span, event
    and counter-sample records, plus the per-domain causality context
    (ambient trace id, innermost open span) they are stamped with.

    It is the only place spans live.  Every {!Span.with_},
    {!Event.emit} and {!record_counter} lands one record in the calling
    domain's ring from process start, whether or not the {!Registry}
    switch is on; every export reads the same window — the CLI's
    [--trace] ({!Trace.write_file}), the profiler's per-run traces and
    the daemon's [dump]/[traces] ops.  When a request later proves slow
    or failing, its complete span tree is still in the window and can be
    retained — tail-based sampling without deciding anything up front.

    Cost per record: one atomic load ({!on}), a handful of array stores.
    Span ids come from one process-wide atomic counter ({!next_id}) so
    parent links survive domain hops (acceptor dispatch → pool worker);
    nesting is carried by those parent ids, not by a depth.

    Readers take only the ring table's lock, never a writer's; a live
    writer can overwrite the oldest slots mid-snapshot, so treat the
    oldest records of a busy ring as best-effort.  Everything else —
    ids, parents, trace ids — is exact.  This module sits below
    {!Registry}. *)

type kind = Span | Event | Counter

type record = {
  fr_kind : kind;
  fr_name : string;
  fr_ts_ns : int;  (** absolute monotonic clock, ns *)
  fr_dur_ns : int;  (** 0 for instant events; the sampled value for counters *)
  fr_id : int;  (** span id; 0 for events and counters *)
  fr_parent : int;  (** parent span id; 0 = root *)
  fr_dom : int;  (** domain that wrote the record *)
  fr_trace : string;  (** ambient trace id; [""] = none *)
  fr_args : (string * string) list;  (** span args ([Span.with_ ~args]) *)
}

val on : unit -> bool
(** True (the default) when records are being written. *)

val enable : unit -> unit

val disable : unit -> unit
(** For the telemetry-off ablation baseline and quiet-ring tests. *)

val set_capacity : int -> unit
(** Resize every ring (clearing them) and set the capacity future
    domains allocate with (4096 slots per domain by default).  Call at
    startup or a quiescent point. *)

(** {2 Causality context}

    Per domain and independent of {!on}: the event log stamps the
    ambient trace id even when the ring is off. *)

type context = {
  mutable trace : string option;  (** ambient request trace id, if any *)
  mutable span : int;
      (** innermost open span id (maintained by {!Span.with_}); 0 = none *)
  mutable charged_ns : int;
      (** running total of the {!Attribution} time charged on this
          domain; a categorised {!Span} subtracts what accrued while it
          was open to charge only its self time *)
}

val context : unit -> context
(** The calling domain's context, for {!Span.with_}'s enter/leave. *)

val current_trace : unit -> string option

val with_trace : string -> (unit -> 'a) -> 'a
(** Run [f] with the ambient trace id set, restoring the previous id
    afterwards (even on raise).  Spans and events recorded inside carry
    it, and {!Event.emit} tags its lines with it. *)

val current_span : unit -> int
(** The calling domain's innermost open span id (0 = none). *)

val with_causality : ?trace:string -> ?parent:int -> (unit -> 'a) -> 'a
(** Run [f] with the ambient trace id and/or parent span id set,
    restoring both afterwards (even on raise).  This is how request
    causality crosses a domain hop: the dispatching side captures
    {!current_trace}/{!current_span}, the executing side re-enters them
    here, and every span or event recorded inside parents correctly. *)

(** {2 Writes} *)

val next_id : unit -> int
(** Mint a process-unique span id (one atomic fetch-and-add). *)

val record_span :
  ?trace:string ->
  ?args:(string * string) list ->
  id:int ->
  parent:int ->
  name:string ->
  t0_ns:int ->
  dur_ns:int ->
  unit ->
  unit
(** Write one completed span into the calling domain's ring. *)

val record_event : ?dur_ns:int -> string -> unit
(** Write one instant event; trace id and parent span come from the
    calling domain's ambient context. *)

val record_counter : string -> int -> unit
(** Write one timestamped counter sample (the value rides in the
    duration slot) with the ambient trace id and parent; the Chrome
    export turns each name into a counter track. *)

(** {2 Reads} *)

type ring_stat = {
  rs_dom : int;
  rs_capacity : int;
  rs_records : int;  (** records ever written *)
  rs_dropped : int;  (** overwritten by the ring wrapping *)
  rs_occupancy : int;  (** live records in the window *)
}

val ring_stats : unit -> ring_stat list
(** Per-domain ring health, ascending domain id.  Rings follow the
    {!Slots} lifecycle: an exited domain's ring stays (shrunk to the
    records it wrote) until 16 more domains have exited; then it is
    dropped, so a process that spawns a pool per job keeps a bounded
    number of rings. *)

val records_total : unit -> int
(** Records ever written since the last {!reset}, dropped rings
    included. *)

val dropped_total : unit -> int

val snapshot : unit -> record list
(** The whole window, all domains, ascending timestamp. *)

val by_trace : string -> record list
(** The window filtered to one trace id — the raw material for a
    retained trace tree. *)

val to_chrome : unit -> Json.t
(** The window as a Chrome [trace_event] object: spans as ["X"]
    complete events (one lane per domain, their args plus [id],
    [parent] and [trace_id]), events as ["i"] instants, counter
    samples as ["C"] tracks, then one [process_name] metadata event.
    Timestamps are rebased to the window's oldest record. *)

val reset : unit -> unit
(** Empty every ring ({!Registry.reset} calls it). *)
