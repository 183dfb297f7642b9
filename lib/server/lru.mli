(** Small least-recently-used cache for resident annotated SLIFs.

    The daemon keeps hot graphs in memory keyed by their content hash
    ({!Slif_store.Cache.key}); capacity bounds the resident set so a
    stream of distinct specs cannot grow the heap without limit.
    Eviction scans for the oldest stamp — O(capacity), which is single
    digits here, so no linked-list bookkeeping.

    Not domain-safe: a cache shared across domains is guarded by one
    mutex held around every call, and its hit and miss totals are then
    exact however many domains use it. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Refreshes the entry's recency on a hit; counts a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts (or refreshes) the binding, evicting the least recently used
    entry when full. *)

val remove : 'a t -> string -> unit
(** Drops the binding if present; a no-op otherwise.  Counts neither a
    hit nor a miss. *)

type stats = {
  size : int;
  capacity : int;
  hits : int;  (** lookups by {!find} that found their key *)
  misses : int;
  keys : string list;  (** resident keys, most recently used first *)
}

val stats : 'a t -> stats
