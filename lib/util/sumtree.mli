(** Pairwise float sums over one fixed tree shape.

    A sum of [n] terms is evaluated over the complete binary tree whose
    leaves sit at positions [n .. 2n-1] (term [i] at [n + i]) and whose
    internal node [p] (for [1 <= p < n]) is [node 2p +. node (2p+1)];
    position 1 is the total.  Every position [2 .. 2n-1] has exactly one
    parent, so each term enters the total exactly once, and because the
    shape depends on [n] alone, two evaluations over equal terms agree to
    the last bit — whether they recurse ({!sum}) or maintain the tree as
    an array ({!t}).

    Compared with a left fold, the rounding error of a pairwise sum grows
    with the tree depth, O(log n) ulps, rather than with [n].  Zero terms
    are exact for non-negative data ([x +. 0.0 = x]), so a sum restricted
    to a subset can keep the full shape with the other terms at [0.0]. *)

type t
(** A maintained tree: a leaf write updates its O(log n) ancestors, the
    total is read in O(1). *)

val create : int -> t
(** [create n]: [n] leaves, all [0.0].  Raises [Invalid_argument] when
    [n < 0]. *)

val leaf : t -> int -> float

val set : t -> int -> float -> unit
(** [set t i v] writes leaf [i] and recomputes its ancestors.  Raises
    [Invalid_argument] when [i] is out of range. *)

val total : t -> float
(** The root: {!sum} over the current leaves, bit for bit.  [0.0] when
    the tree has no leaves. *)

val load : t -> (int -> float) -> unit
(** [load t f] writes every leaf [i] to [f i] and rebuilds the internal
    nodes bottom-up in O(n). *)

val sum : int -> (int -> float) -> float
(** [sum n f] is the total of a tree whose leaf [i] is [f i], computed by
    recursion over the same shape without building it. *)
