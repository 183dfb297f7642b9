(** Content-addressed cache of annotated SLIF store files.

    The cache key is the MD5 of (source text, profile text, technology
    fingerprint, format version): any input that changes the annotation
    result changes the key, so entries never go stale silently — a new
    input simply misses.  Entries live as [<dir>/<key>.slifstore]
    containers written by {!Store.save_slif}; a corrupt or mismatched
    entry is rebuilt and overwritten, never trusted.

    Counters (when {!Slif_obs} records): [store.cache_hit],
    [store.cache_miss], [store.cache_invalid] (present but unreadable or
    failing provenance validation — counted as a rebuild), and
    [store.cache_write_error]: the entry could not be written (a full
    disk, say); the built SLIF is still returned, and a
    [store.cache_write_error] warning event carries the error. *)

val tech_fingerprint : unit -> string
(** Identifies the {!Tech.Parts} catalog baked into this binary (names
    plus the store format version).  Annotation weights are pure
    functions of (source, profile, catalog), so this is the third key
    component. *)

val key : source:string -> ?profile:string -> unit -> string
(** Hex MD5 content key.  [profile] is the branch-probability file text
    (omit for the static defaults — a distinct key from any real
    profile). *)

val load_or_build :
  dir:string ->
  source:string ->
  ?profile:string ->
  build:(unit -> Slif.Types.t) ->
  unit ->
  Slif.Types.t * [ `Hit | `Miss | `Rebuilt ]
(** The load-or-build step: return the cached annotated SLIF when a
    valid entry exists, otherwise run [build], persist the result and
    return it.  Creates [dir] (and parents) on first use.  Raises
    [Store.Store_error (Io _)] when the directory cannot be created — the
    caller turns that into a one-line diagnostic; a failed entry write
    is counted, not raised. *)
