(** Operation census of a behavior.

    Reduces a behavior body to per-{!Optype} counts:
    - [dynamic]: expected executions per start-to-finish run (loop- and
      probability-weighted), with loads/stores/calls of {e non-local}
      objects excluded — those are channel accesses whose cost the SLIF
      execution-time equation adds separately (paper, eq. 1);
    - [static]: one count per site, communication included — the basis of
      code size and hardware area.

    [is_local name] decides whether an accessed name is internal to the
    behavior (locals, parameters, loop indices, constants) or a functional
    object of its own (global variable, signal, port, subprogram). *)

type t = { dynamic : float array; static : int array }
(** Arrays indexed by [Optype.index]. *)

val dyn : t -> Optype.t -> float
val stat : t -> Optype.t -> int

val of_behavior :
  profile:Flow.Profile.t ->
  is_local:(string -> bool) ->
  is_sub:(string -> bool) ->
  name:string ->
  Vhdl.Ast.stmt list ->
  t
(** [is_sub name] identifies subprogram names, so that a single-argument
    call (syntactically identical to an array index) is counted as call
    linkage rather than as a load. *)

val total_static : t -> int
