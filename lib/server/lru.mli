(** Small least-recently-used cache for resident annotated SLIFs.

    The daemon keeps hot graphs in memory keyed by their content hash
    ({!Slif_store.Cache.key}); capacity bounds the resident set so a
    stream of distinct specs cannot grow the heap without limit.
    Eviction scans for the oldest stamp — O(capacity), which is single
    digits here, so no linked-list bookkeeping. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Refreshes the entry's recency on a hit. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts (or refreshes) the binding, evicting the least recently used
    entry when full. *)

val remove : 'a t -> string -> unit
(** Drops the binding if present; a no-op otherwise. *)

(** Domain-safe sharded wrapper — the multi-worker daemon's resident
    set.

    Keys route to a shard by a deterministic hash of the key bytes;
    each shard is an independent plain {!t} guarded by its own
    {!Slif_obs.Lockprof} lock ([server.lru.<i>]), so concurrent workers
    only contend when their keys collide on a shard — there is no
    global lock.  Eviction, touch and re-insert semantics within a
    shard are exactly the plain cache's; a shard never evicts another
    shard's entries.  Per-shard hit/miss counters are mutated under the
    shard lock, so totals are exact however many domains hammer the
    cache. *)
module Sharded : sig
  type 'a t

  val create : ?shards:int -> capacity:int -> unit -> 'a t
  (** [create ~shards ~capacity ()] (default 8 shards) splits [capacity]
      over the shards, rounding up so every shard holds at least one
      entry — the shards' capacities sum to [>=] the request.  A key
      routes to a shard by a pure function of its bytes and the shard
      count.  Raises [Invalid_argument] when [shards < 1] or
      [capacity < 1]. *)

  val find : 'a t -> string -> 'a option
  (** Refreshes recency within the key's shard on a hit; counts a hit
      or a miss. *)

  val add : 'a t -> string -> 'a -> unit
  (** Inserts (or refreshes) the binding in the key's shard, evicting
      that shard's least recently used entry when it is full. *)

  val remove : 'a t -> string -> unit
  (** Drops the binding from its shard if present; a no-op otherwise.
      Counts neither a hit nor a miss. *)

  val keys : 'a t -> string list
  (** Resident keys, grouped by shard (ascending), most recently used
      first within each shard. *)

  type shard_stat = {
    sh_index : int;
    sh_size : int;
    sh_capacity : int;
    sh_hits : int;
    sh_misses : int;
  }

  val shard_stats : 'a t -> shard_stat list
  (** One entry per shard, ascending index. *)
end
