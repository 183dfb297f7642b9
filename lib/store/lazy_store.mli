(** Lazily decoded v2 store containers.

    [open_file] reads only the fixed-size header, the CRC-guarded section
    directory and the META section — a few hundred bytes however large
    the file is.  Metadata queries (design name, object counts, the
    decoded-heap estimate) are answered from those, which is how the
    daemon serves a graph larger than its LRU budget: nothing lands on
    the OCaml heap until {!slif} forces a full decode.

    Nothing is mapped and no descriptor is held between calls: each
    operation opens the path, [fstat]s it, [read(2)]s the byte ranges it
    needs and closes it before returning, so a file truncated or replaced
    under a handle is a typed error, never a signal.

    A handle is domain-safe (immutable after open, decode memo under a
    mutex).  The memo holds the decoded graph {e weakly}: the caller
    keeps the only strong reference (the daemon's LRU), so dropping it
    really releases the heap.  Every completed full decode bumps the
    [store.lazy.full_decode] counter — the hook the "served without
    decoding" test assertions (and operators) watch. *)

type t

val open_file : string -> (t, Store.error) result
(** Reads the section table with {!Store.directory} and validates META;
    the handle remembers the file's identity.  v1 containers (which
    cannot be decoded piecemeal) yield [Unsupported_version 1]; callers
    fall back to {!Store.load_slif}.
    Malformed directories — including offset/length pairs engineered to
    overflow — yield a typed error, never an exception. *)

val file_size : t -> int
val design : t -> string
val meta : t -> Store.v2_meta

val decoded_bytes_estimate : t -> int
(** META's write-time estimate of the decoded graph's heap bytes. *)

type identity = { id_dev : int; id_ino : int; id_size : int; id_mtime : float }

val file_identity : string -> identity option
(** The (device, inode, size, mtime) the path names now; [None] when it
    cannot be stat'd. *)

val changed : string -> identity -> bool
(** [changed path ident]: whether [path] no longer names the file whose
    identity was [ident] — replaced, rewritten or unlinked.  The one
    staleness check behind {!stale}, also used for v1 containers, which
    are decoded whole rather than through a handle. *)

val stale : t -> bool
(** Whether the path now names different bytes than the handle was
    opened on ({!changed}) — replaced, rewritten or unlinked.  Callers
    should drop the handle and reopen. *)

val provenance : t -> (Store.provenance, Store.error) result
(** Reads and decodes the (small) PROV section on demand, with the same
    checks on the file as {!slif}. *)

val decoded : t -> bool
(** Whether a forced decode (graph or error) is currently memoized.
    Flips back to [false] once an evicted graph is collected. *)

val slif : t -> (Slif.Types.t * Store.provenance, Store.error) result
(** Force the full decode (per-section CRCs are verified now, not at
    open time) and bump [store.lazy.full_decode].  The result is
    memoized weakly — callers that keep it alive share one decode;
    once every caller drops it the memory is reclaimable and a later
    force decodes again.

    The path must still name the file opened: another device or inode
    (a [save_slif] renamed over it) gives [Error (Io _)], never a decode
    of the new bytes under the old directory, as does an unlinked path;
    a shorter file or a short read gives [Error (Truncated _)].  Neither
    is memoized, unlike a verdict on the bytes read (a checksum
    mismatch, a malformed payload). *)
