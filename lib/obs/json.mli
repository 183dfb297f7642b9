(** Minimal JSON tree, printer and parser.

    The exporters ({!Trace}, {!Metrics}) need to emit strictly valid JSON
    and the test suite needs to check the emitted files parse back; the
    sealed image has no JSON library, so this is a small self-contained
    implementation.  Floats that are not finite print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val to_channel : out_channel -> t -> unit

val write_file : string -> t -> unit
(** Serialize to [path] followed by a trailing newline. *)

val parse : string -> (t, string) result
(** Strict recursive-descent parser (objects, arrays, strings with
    escapes, numbers, [true]/[false]/[null]); used by the tests to
    validate exported files. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up [key]; [None] on any other
    constructor. *)
