(** Concrete interpreter for the VHDL subset, with execution profiling.

    The paper allows the branch-probability file to be "obtained manually
    or through profiling" (Section 2.4.1).  This interpreter is the
    profiling path: it executes behaviors on concrete port stimuli,
    records which branch arms are taken and how often while loops
    iterate, and exports the observations as a {!Profile} whose site
    numbering matches {!Count}'s.

    Execution model, aligned with the static analysis:
    - one [run_process] call is one start-to-finish pass (the outer
      [loop ... end loop] of a process body executes once);
    - [wait] statements are no-ops (time is not modeled);
    - [par] calls execute sequentially;
    - message [send]/[receive] go through per-channel FIFOs, an empty
      FIFO yields 0.

    Runaway protection: every statement costs one step against
    [max_steps] (a per-pass budget, reset by [run_process]), and each
    while loop is cut off at [max_while_iters] iterations per entry. *)

type value = Vint of int | Vbool of bool | Varr of int array

type limits = { max_steps : int; max_while_iters : int }

exception Limit_exceeded of string
(** Step or iteration budget exhausted; carries the behavior name. *)

exception Runtime_error of string
(** Division by zero, unbound name, out-of-bounds index, arity mismatch. *)

type t

val create : ?limits:limits -> inputs:(string -> int) -> Vhdl.Sem.t -> t
(** [create ~inputs sem] (default limits: 200_000 steps, 10_000
    iterations) builds a machine with all architecture-level
    variables and signals initialized (declared initializers evaluated,
    otherwise zero / false / range minimum).  [inputs name] supplies the
    value read from input port [name]. *)

val run_process : t -> string -> unit
(** One start-to-finish execution of the named process.
    Raises [Not_found] for an unknown process. *)

val run_all_processes : t -> unit
(** One pass of every process, in declaration order. *)

val port_output : t -> string -> int option
(** Last value written to an output port, if any. *)

val read_global : t -> string -> value option
(** Current value of an architecture-level variable or signal. *)

val profile : t -> Profile.t
(** Snapshot the recorded branch and loop statistics as a
    branch-probability profile (covering the control sites that executed
    at least once). *)

val steps : t -> int
(** Statements executed in the current (or last) pass. *)
