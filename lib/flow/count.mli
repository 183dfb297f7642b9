(** Static execution-count analysis of a behavior.

    Walks a behavior body once, multiplying loop trip counts and branch
    probabilities, and reports every access site (variable read/write,
    subprogram call, message pass) together with how many times it executes
    during one average start-to-finish execution of the behavior — exactly
    the [accfreq] weight of the paper, plus the min / max variants the
    paper mentions as simple extensions.

    Conventions (documented deviations are in DESIGN.md §5):
    - [for] loops use their exact static trip count for avg, min and max;
    - [while] loops use the profile's expected trips for avg, 0 for min
      and twice the expected trips for max;
    - [loop ... end loop] (the process's forever loop) counts as a single
      pass, since the metric is per start-to-finish execution;
    - code under a condition contributes 0 to the min count and its full
      multiplier to the max count;
    - the condition of arm [k] of an if-chain is evaluated only when no
      earlier arm was taken. *)

type mult = { avg : float; mn : float; mx : float }

val mult_one : mult
val mult_scale : mult -> mult -> mult

type access =
  | Read of string          (* variable / signal / port / constant read *)
  | Write of string         (* variable / signal / port write *)
  | Call of string          (* subprogram call (statement or expression) *)
  | Message_out of string   (* send on an abstract message channel *)
  | Message_in of string    (* receive on an abstract message channel *)

type event = {
  access : access;
  mult : mult;
  par_group : int option;  (* same group <=> inside the same [par] block *)
  seq : int;               (* pre-order statement index, for tagging *)
}

val iter :
  profile:Profile.t ->
  behavior:string ->
  ?on_stmt:(mult -> Vhdl.Ast.stmt -> unit) ->
  ?on_access:(event -> unit) ->
  ?on_expr:(mult -> Vhdl.Ast.expr -> unit) ->
  Vhdl.Ast.stmt list ->
  unit
(** [iter] walks the body once, in traversal order, and feeds each
    callback given; a consumer that needs several views makes one walk.
    - [on_stmt] sees every statement (composite statements included,
      before their children) with that statement's execution multiplier;
      the technology models build their op censuses from it.
    - [on_access] sees each event of {!events}.
    - [on_expr] sees every source-level expression occurrence (assignment
      right-hand sides, branch and loop conditions — each with its exact
      evaluation multiplier, e.g. a while condition scaled by its trip
      count) but not its subexpressions; consumers walk the expression
      themselves. *)

val events : profile:Profile.t -> behavior:string -> Vhdl.Ast.stmt list -> event list
(** All access events of the behavior body, in traversal order.  Loop
    indices are recognized and do not generate read events. *)
