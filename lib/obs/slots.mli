(** Per-domain cells with one retire lifecycle — the table behind
    {!Registry}, {!Attribution}, {!Gcprof} and {!Flight}.

    A domain claims a fresh cell on first {!get} (one [Domain.DLS.get]
    afterwards, no lock).  When the domain exits, the store's [on_exit]
    hook runs and the cell joins an exited queue, still readable.  Once
    more than 16 cells wait there, the oldest is folded into the store's
    retired total by [retire] and dropped.  A store therefore holds the
    cells of its live domains and of the 16 most recently exited, and a
    reader that adds the retired total to the cells counts everything
    ever written.  The main domain's cell is never retired. *)

type ('c, 'r) t
(** Cells of type ['c] plus a retired total of type ['r]. *)

val create :
  ?on_exit:('c -> unit) ->
  fresh:(unit -> 'c) ->
  retired:'r ->
  retire:('r -> 'c -> 'r) ->
  unit ->
  ('c, 'r) t
(** [retired] is the empty total.  [fresh] runs on the claiming domain;
    [on_exit] (default none) on the exiting domain and [retire] under
    the table's lock.  [retire total c] must return a new total and
    leave [total] as it was: a reader may still be walking it. *)

val get : ('c, 'r) t -> 'c
(** The calling domain's cell, claimed on first use. *)

val read : ('c, 'r) t -> 'r * (int * 'c) list
(** The retired total and the cells, each paired with its owner's
    [Domain.self] id in ascending order.  The lock is held only to take
    the pair, which is consistent: no cell is both listed and counted
    in the total. *)

val reset : ('c, 'r) t -> ('c -> unit) -> unit
(** [reset t zero] puts the retired total back to the empty one and
    runs [zero] on every cell, under the table's lock. *)
