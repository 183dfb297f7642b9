(** Struct-of-arrays mirror of a SLIF access graph.

    Estimation at million-node scale cannot afford the record-and-list
    representation ([Types.channel list] per node): every hop chases a
    cons cell, a channel record and two assoc lists, none of which sit in
    the same cache line.  [Compact.t] flattens the whole graph into
    int-indexed unboxed arrays once, at [Graph.make] time:

    - channels as parallel arrays (source, destination code, bits, tag,
      kind, and the three access-frequency weights);
    - adjacency as CSR rows ([out_off]/[out_chan] and [in_off]/[in_chan]),
      channel ids ascending within a row — the exact order of the
      [Graph.out_chans] lists, so float summation order (and therefore
      every estimate, to the last bit) is unchanged;
    - technology names interned to dense ids, with per-node ict/size
      weight rows and per-bus transfer-time matrices pre-resolved against
      the interned table, replacing [List.assoc] on the innermost loop.

    The arrays are exposed directly (reads on the estimation hot path
    must not pay a function call per field); treat them as frozen after
    {!make}. *)

type t = {
  n_nodes : int;
  n_chans : int;
  n_techs : int;
  node_is_var : Bytes.t;  (** 1 byte per node: 1 for variables, 0 for behaviors *)
  (* Per-node weight rows: entries [off.(id) .. off.(id+1)-1] hold the
     node's (tech id, value) pairs in declaration order, so a forward
     scan matches [List.assoc_opt]'s first-hit semantics. *)
  ict_off : int array;
  ict_tech : int array;
  ict_val : float array;
  size_off : int array;
  size_tech : int array;
  size_val : float array;
  (* Channels, struct-of-arrays; index = channel id. *)
  chan_src : int array;
  chan_dst : int array;  (** destination node id, or [-(port+1)] for a port *)
  chan_bits : int array;
  chan_tag : int array;  (** concurrency tag, [-1] when untagged *)
  chan_kind : int array;  (** {!kind_call} (0) … {!kind_message} (3) *)
  chan_freq : float array;
  chan_freq_min : float array;
  chan_freq_max : float array;
  (* CSR adjacency; channel ids ascend within each row. *)
  out_off : int array;  (** length [n_nodes + 1] *)
  out_chan : int array;
  chan_slot : int array;
      (** per channel: its position in [out_chan], the inverse of the
          out-row map, so a per-slot cache can be addressed by channel *)
  in_off : int array;
  in_chan : int array;
  (* Interned technologies. *)
  tech_names : string array;
  comp_tech : int array;
      (** tech id per component, by {!Partition.comp_index}: processors
          first, then memories *)
  (* Buses, with ts/td resolved for every (bus, tech [pair]) up front. *)
  bus_width : int array;
  bus_ts : float array;  (** [(bus * n_techs) + tech] — {!Types.bus_ts} *)
  bus_td : float array;  (** [((bus * n_techs) + a) * n_techs + b] — {!Types.bus_td} *)
  bus_td_default : float array;  (** per bus: [b_td_us], for port destinations *)
}

val kind_call : int
val kind_message : int
(** The [chan_kind] codes of [Call] and [Message] channels ([Var_access]
    and [Port_access] have codes 1 and 2). *)

val make : Types.t -> t
(** One O(nodes + channels + weight entries) pass; no further allocation
    is needed to answer adjacency or weight queries. *)

val ict_ix : t -> int -> int -> int
(** [ict_ix t node tech] is the index into [ict_val] of the node's ict
    weight on [tech], or [-1] when the node carries none. *)

val size_ix : t -> int -> int -> int
(** Same for the size weight row. *)

val is_var : t -> int -> bool
