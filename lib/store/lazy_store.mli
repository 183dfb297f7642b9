(** Lazily decoded, memory-mapped v2 store containers.

    [open_file] maps the container with [Unix.map_file] and parses only
    the fixed-size header, the CRC-guarded section directory and the META
    section — a few hundred bytes of work however large the file is.
    Metadata queries (design name, object counts, the decoded-heap
    estimate) are then answered without touching the graph sections, which
    is how the daemon serves a graph larger than its LRU budget: the bytes
    stay in the page cache behind the mapping, and nothing lands on the
    OCaml heap until {!slif} forces a full decode.

    A handle is domain-safe: the mapping is read-only and the decode memo
    is guarded by a mutex, so worker domains can share one handle.  The
    memo holds the decoded graph {e weakly}: the caller keeps the only
    strong reference (the daemon's LRU), so dropping that reference really
    releases the heap — a long-lived handle never pins a decode.  Every
    completed full decode bumps the [store.lazy.full_decode] counter — the
    hook the "served without decoding" test assertions (and operators)
    watch. *)

type t

val open_file : string -> (t, Store.error) result
(** Maps the file, reads its section table with {!Store.directory} and
    validates META.  v1 containers (which cannot be decoded piecemeal)
    yield [Unsupported_version 1]; callers fall back to
    {!Store.load_slif}.
    Malformed directories — including offset/length pairs engineered to
    overflow — yield a typed error, never an exception. *)

val path : t -> string
val file_size : t -> int
val design : t -> string
val kind : t -> Store.kind
val meta : t -> Store.v2_meta

val decoded_bytes_estimate : t -> int
(** META's write-time estimate of the decoded graph's heap bytes. *)

type identity = { id_dev : int; id_ino : int; id_size : int; id_mtime : float }

val identity : t -> identity
(** The (device, inode, size, mtime) of the file as it was mapped. *)

val file_identity : string -> identity option
(** The (device, inode, size, mtime) the path names now; [None] when it
    cannot be stat'd. *)

val changed : string -> identity -> bool
(** [changed path ident]: whether [path] no longer names the file whose
    identity was [ident] — replaced, rewritten or unlinked.  The one
    staleness check behind {!stale}, also used for v1 containers, which
    are decoded whole and never mapped. *)

val stale : t -> bool
(** [changed (path t) (identity t)]: whether the path now names different
    bytes than the mapping serves:
    [save_slif] renames a fresh inode over the old one, which the mmap
    pins.  True when the file was replaced, rewritten, or unlinked —
    callers should drop the handle and reopen. *)

val sections : t -> Store.section_info list

val provenance : t -> (Store.provenance, Store.error) result
(** Decodes the (small) PROV section on demand.  [Truncated] when the
    file was truncated under the mapping, as for {!slif}. *)

val decoded : t -> bool
(** Whether a forced decode (graph or error) is currently memoized.
    Flips back to [false] once an evicted graph is collected. *)

val slif : t -> (Slif.Types.t * Store.provenance, Store.error) result
(** Force the full decode (per-section CRCs are verified now, not at
    open time) and bump [store.lazy.full_decode].  The result is
    memoized weakly — callers that keep it alive share one decode;
    once every caller drops it the memory is reclaimable and a later
    force decodes again.

    Reading a mapping past the end of a file truncated in place raises
    SIGBUS, so before decoding this stats the path: if it still names
    the mapped file (same device and inode) and is now shorter than the
    mapping, the result is [Error (Truncated "store file shrank under
    its mapping")], and it is not memoized.  A truncate that races
    between that check and the read is still open: it kills the
    process. *)
