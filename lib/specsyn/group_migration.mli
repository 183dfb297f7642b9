(** Group-migration (Kernighan-Lin-style) improvement.

    Repeated passes over the nodes: in each pass every unlocked node is
    tentatively moved to its best alternative component; the best single
    move is committed and the node locked; the pass's best prefix of moves
    is kept.  Passes start from the all-software seed partition and
    repeat until one yields no improvement, at most 8 times.  This is the
    classic hill-climbing-with-escape partitioner the paper's complexity
    argument (the n-squared algorithm of Section 5) refers to. *)

val run : ?replica:Engine.t -> Search.problem -> Search.solution
(** [replica] reuses the calling domain's engine via {!Engine.acquire}
    (bitwise-identical scoring, no per-run engine build) — the
    share-nothing sweep's fast path. *)
