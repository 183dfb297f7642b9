(** Named monotonically increasing event counters.

    Names are dotted paths ([estimate.memo_hit],
    [search.partitions_scored]); the registry aggregates across every
    instance of the producing component, so two estimators both feed the
    same [estimate.*] counters. *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to the named counter, creating it at zero
    first.  No-op while the registry is disabled. *)

val add : string -> int -> unit
(** [add name n] = [incr ~by:n name]. *)

type cell
(** A counter cell resolved to the calling domain, padded to its own
    cache lines so bumps never contend with another domain's counters. *)

val cell : string -> cell
(** Resolve (creating if needed) the calling domain's cell for [name].
    The handle stays valid across {!Registry.reset} (cells are zeroed in
    place, never dropped) but belongs to the domain that resolved it:
    a component meant to run on a pool worker must resolve its cells on
    that worker — which the share-nothing per-domain replicas do by
    construction. *)

val bump : ?by:int -> cell -> unit
(** {!incr} through a resolved handle: one branch and one store, no hash
    lookup — what the estimate memo path uses at tens of millions of
    bumps per sweep.  No-op while the registry is disabled. *)

val get : string -> int
(** Current value; 0 for a counter that never fired. *)

val snapshot : unit -> (string * int) list
(** All counters, sorted by name. *)

val snapshot_by_domain : unit -> (int * (string * int) list) list
(** Per-domain unmerged counters, ascending domain id; domains that
    never counted, and the retired total, are omitted.  Names sorted
    within each domain. *)
