(** Control-dataflow graph — the fine-grained comparator format.

    This is the representation high-level synthesis tools use and that the
    paper's Results section compares SLIF against: one node per arithmetic
    operation, constant, variable read or write, branch or call; data
    edges between producers and consumers; control edges sequencing
    statements and framing loops.  For the fuzzy example the paper reports
    over 1100 nodes and 900 edges at this granularity, versus 35/56 for
    the SLIF access graph. *)

type node_kind =
  | Op of Tech.Optype.t      (* one arithmetic / logic / compare operation *)
  | Const of int
  | Read of string           (* one read access of a variable or port *)
  | Write of string          (* one write access *)
  | Branch                   (* fork of control on a condition *)
  | Join                     (* merge of control *)
  | Loop_head
  | Call_site of string
  | Io of string             (* wait / message primitive *)

type node = { id : int; kind : node_kind; behavior : string }

type edge_kind = Data | Control

type edge = { e_src : int; e_dst : int; e_kind : edge_kind }

type t = { nodes : node array; edges : edge array }

val of_design : Vhdl.Ast.design -> t
(** Builds the CDFG for every behavior of the design. *)

val node_count : t -> int
val edge_count : t -> int
