(** Name resolution and type queries over a parsed design.

    The SLIF builder and the technology models need to know, for every name
    appearing in a behavior, whether it is a local variable, a global
    (architecture-level) variable or signal, a port, a constant, a
    subprogram parameter, or a subprogram — and how many bits its type
    occupies, both per access and in total storage. *)

type kind =
  | Local_var of Ast.type_def
  | Global_var of Ast.type_def   (* architecture signal or shared variable *)
  | Port of Ast.mode * Ast.type_def
  | Param of Ast.mode * Ast.type_def
  | Constant of Ast.type_def * Ast.expr
  | Subprogram of Ast.subprogram

type t

type env
(** Scope of one behavior: its locals and parameters over the design
    globals. *)

exception Unbound of string
(** Raised by the width queries on an unknown name or
    unresolvable named type. *)

val build : Ast.design -> t
(** [build design] indexes the design's globals, ports and subprograms.
    Raises [Unbound] if a named type has no [type] declaration. *)

val design : t -> Ast.design

val env_of_behavior : t -> string -> env
(** [env_of_behavior t name] is the scope of the process or subprogram
    called [name].  Raises [Unbound] when no such behavior exists. *)

val global_env : t -> env
(** Scope containing only ports, architecture declarations and
    subprograms. *)

val lookup : env -> string -> kind option
val resolve : t -> Ast.type_def -> Ast.type_def
(** [resolve t ty] chases [Named] references to a concrete type. *)

val transfer_bits : t -> Ast.type_def -> int
(** Bits moved by one access: scalar width for scalars; element width plus
    address width for arrays (paper, Section 2.4.1). *)

val storage_bits : t -> Ast.type_def -> int
(** Total storage: arrays are length x element width. *)

val is_function_name : t -> string -> bool
(** True when the name is a declared function or procedure; used to
    disambiguate [a(i)] between array indexing and a call. *)

val params_bits : t -> Ast.subprogram -> int
(** Sum of per-access bits over a subprogram's parameters, plus the result
    width for a function — the [bits] weight of a channel to that
    behavior.  Zero for a parameterless procedure (a pure control
    transfer). *)

