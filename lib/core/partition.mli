(** A partition: the mapping of functional objects onto system components.

    The paper requires a proper partition to map every behavior to exactly
    one processor, every variable to exactly one processor or memory, and
    every channel to exactly one bus (Section 2.2).  The representation —
    one component slot per node, one bus slot per channel — makes the
    exactly-one property structural; {!Validate} checks the remaining
    rules.

    The slots are unboxed [int array]s: a node holds its component's
    index ({!comp_index}: processors first, then memories) and a channel
    its bus id, with [-1] for unassigned.  The accessors return values
    preallocated by {!create} and shared by every {!copy}, so
    {!comp_of}, {!comp_of_exn}, {!bus_of} and {!same_component_nodes}
    never allocate.

    Assignments bump a version counter so estimator caches can notice
    staleness cheaply. *)

type comp = Cproc of int | Cmem of int

type t

val create : Types.t -> t
(** All slots initially unassigned. *)

val copy : t -> t

val slif : t -> Types.t

val version : t -> int
(** Monotone counter, incremented by every assignment. *)

val restore_version : t -> int -> unit
(** Transactional-rollback support: reset the counter to a value captured
    with {!version} earlier.  The caller must have undone every assignment
    made since the capture, so that the mapping associated with the
    restored version is back in place — {!Estimate} caches keyed on the
    version then remain coherent.  Raises [Invalid_argument] when the
    value is negative or ahead of the current version. *)

val assign_node : t -> node:int -> comp -> unit
val assign_chan : t -> chan:int -> bus:int -> unit

val comp_index : t -> int -> int
(** The node's component index — [p] for [Cproc p], [n_procs + m] for
    [Cmem m] — or [-1] when unassigned. *)

val index_of_comp : t -> comp -> int
(** A component's index in the same numbering, or [-1] when the
    specification has no such component. *)

val comp_of : t -> int -> comp option
val comp_of_exn : t -> int -> comp
(** Raises [Invalid_argument] when the node is unassigned — the paper's
    GetBvComp. *)

val bus_of : t -> int -> int option
val bus_of_exn : t -> int -> int
(** The paper's GetChanBus. *)

val nodes_of_comp : t -> comp -> int list
(** Ascending node ids; [[]] for a component the specification lacks. *)

val same_component_nodes : t -> int -> int -> bool
(** Whether two nodes are currently mapped to the same component; false
    when either is unassigned. *)

val comp_name : Types.t -> comp -> string
val comp_tech : Types.t -> comp -> Types.tech_name

val assign_all_chans : t -> bus:int -> unit
(** Convenience: map every channel to the given bus.  Raises
    [Invalid_argument] when there are channels and no such bus. *)
