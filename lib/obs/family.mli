(** Labeled counter families: one named metric, many label values.

    The daemon's multi-domain refactor needs counters that are keyed by
    a small dynamic dimension — requests per {e worker} domain, batch
    items per {e op} — and exported as one
    Prometheus family with a label per series.  {!Counter} only knows
    flat names; encoding the label into the name
    ([server.worker.requests.3]) would leak the cardinality into every
    snapshot consumer.  A family instead owns its label dimension:

    {v
      let served = Family.create "server.worker.requests" ~label:"worker" in
      Family.incr served (string_of_int w);
      Family.snapshot served  (* [("0", 812); ("1", 790); ...] *)
    v}

    Families are {e always on} — like the daemon's per-op latency
    histograms and unlike {!Counter}, they do not consult the registry
    switch, because the serving layer's operational counters must answer
    [stats]/[metrics] scrapes even in an unprofiled daemon.

    Domain safety: each series value is a plain [int ref] mutated under
    the family's own mutex; {!incr} from any domain is exact (the
    family's cross-domain test counts on it).  Snapshots take the same
    mutex, so a scrape never sees a torn series list. *)

type t

val create : string -> label:string -> t
(** [create name ~label] registers (or returns the existing) family
    [name] whose series are distinguished by label key [label].
    Re-creating an existing name with a different [label] raises
    [Invalid_argument] — one family, one label dimension. *)

val name : t -> string

val label : t -> string
(** The label key, e.g. ["worker"] or ["op"]. *)

val incr : ?by:int -> t -> string -> unit
(** [incr t v] adds [by] (default 1) to the series labeled [v],
    creating it at zero first.  Always on, exact across domains. *)

val snapshot : t -> (string * int) list
(** All series of the family, sorted by label value. *)

val all : unit -> t list
(** Every registered family, sorted by name. *)
