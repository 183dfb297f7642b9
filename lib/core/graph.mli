(** Adjacency queries over a SLIF access graph.

    Precomputes per-node outgoing/incoming channel lists so that the
    estimators' GetBehChans is O(out-degree) (paper, Section 3.1). *)

type t

val make : Types.t -> t

val slif : t -> Types.t

val compact : t -> Compact.t
(** The struct-of-arrays mirror built by {!make} — the representation the
    estimation and engine hot paths index instead of the record lists. *)

val out_chans : t -> int -> Types.channel list
(** Channels whose source is the given behavior node — GetBehChans(b). *)

val in_chans : t -> int -> Types.channel list
(** Channels whose destination is the given node. *)

val has_call_cycle : t -> bool
(** True when the call-channel subgraph has a cycle — recursion in the
    specification (the paper notes an AG cycle represents recursion). *)

val transitive_callers : t -> int -> int list
(** All behaviors whose execution time depends on the given node: the
    node itself (when a behavior) plus everything upstream over call
    channels — the invalidation set for incremental estimation. *)
