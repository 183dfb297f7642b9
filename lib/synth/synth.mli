(** Deterministic synthetic access-graph generator ([slif synth]).

    Real specifications top out at a few thousand nodes; the scalability
    claims (struct-of-arrays estimation, the lazily decodable store v2,
    the daemon's admission control) need graphs three orders of magnitude
    larger.  This module manufactures them: a fully annotated
    {!Slif.Types.t} — weights on every node, frequencies and bitwidths on
    every channel, an embedded proc+asic+ram allocation — whose every
    byte is a pure function of [(seed, params)].

    {2 Determinism contract}

    Node [i]'s kind, name, weights and the channels it {e generates} are
    drawn from the private stream [Prng.derive ~root:seed i] in a fixed
    order; channel ids come from a serial prefix sum over per-node
    channel {e counts} that are plain index arithmetic (no draws).  The
    parallel fill therefore writes disjoint, precomputed slots: the
    resulting graph — and any store file serialized from it — is
    byte-identical for every [jobs] value and every run.

    {2 Topology families}

    - {!Call_tree}: chains of [depth] calls hanging off the root — the
      estimator's recursive worst case (depth is clamped so the
      recursion cannot overflow the stack);
    - {!Fanout}: a [fanout]-ary call tree — wide, shallow, the CSR
      row-iteration stress case;
    - {!Shared_vars}: a shallow call tree whose behaviors hammer a pool
      of shared variables (a hot subset absorbs ~1/4 of accesses) — the
      dense-sharing / concurrency-tag case;
    - {!Mixed}: chains broken by periodic fanout reattachment plus the
      variable pool — all three shapes in one graph. *)

type family = Call_tree | Fanout | Shared_vars | Mixed

val all_families : family list
val family_to_string : family -> string
val family_of_string : string -> (family, string) result

type params = {
  seed : int;
  nodes : int;  (** total node count (behaviors + variables), >= 2 *)
  family : family;
  depth : int;  (** max call-chain length (clamped to 2048) *)
  fanout : int;  (** children per node in fanout shapes, >= 1 *)
  var_fraction : float;  (** fraction of nodes that are variables, in [0, 1] *)
  sharing : int;  (** variable accesses generated per sharing behavior *)
}

val default_params : ?seed:int -> ?nodes:int -> family -> params

val generate : ?pool:Slif_util.Pool.t -> params -> Slif.Types.t
(** Build the annotated graph.  With [pool] the per-node fill is chunked
    across the pool's domains; output is byte-identical with or without
    it (see the determinism contract).  Raises [Invalid_argument] on
    [nodes < 2], [fanout < 1], [sharing < 0] or a [var_fraction]
    outside [0, 1]. *)

val describe : Slif.Types.t -> string
(** One-line [name nodes=... chans=... behaviors=... vars=...] summary
    (what [slif synth] prints to stderr). *)
