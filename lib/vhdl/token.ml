(** Tokens of the behavioral-VHDL subset.

    Keywords are recognized case-insensitively, as in VHDL.  The [Par] and
    [Send]/[Receive] extensions support the fork/join and message-passing
    constructs SLIF models (paper, Sections 2.2-2.3). *)

type keyword =
  | K_entity | K_is | K_port | K_in | K_out | K_inout | K_end
  | K_architecture | K_of | K_begin | K_process | K_procedure | K_function
  | K_variable | K_signal | K_constant | K_type | K_array | K_to | K_downto
  | K_if | K_then | K_elsif | K_else | K_case | K_when | K_others
  | K_for | K_loop | K_while | K_wait | K_until | K_on | K_return
  | K_and | K_or | K_not | K_xor | K_mod | K_rem | K_abs
  | K_integer | K_boolean | K_bit | K_bit_vector | K_natural | K_range
  | K_true | K_false | K_null | K_par | K_shared | K_us | K_ns | K_ms

type t =
  | Ident of string
  | Int_lit of int
  | Str_lit of string
  | Keyword of keyword
  | Lparen | Rparen
  | Semicolon | Colon | Comma | Dot
  | Assign          (* := *)
  | Arrow           (* => *)
  | Le_or_sigassign (* <= : context decides signal assign vs comparison *)
  | Lt | Gt | Ge | Eq | Neq
  | Plus | Minus | Star | Slash | Amp
  | Tick            (* ' attribute *)
  | Bar             (* | choice separator *)
  | Eof

let all_keywords =
  [|
    K_entity; K_is; K_port; K_in; K_out; K_inout; K_end;
    K_architecture; K_of; K_begin; K_process; K_procedure; K_function;
    K_variable; K_signal; K_constant; K_type; K_array; K_to; K_downto;
    K_if; K_then; K_elsif; K_else; K_case; K_when; K_others;
    K_for; K_loop; K_while; K_wait; K_until; K_on; K_return;
    K_and; K_or; K_not; K_xor; K_mod; K_rem; K_abs;
    K_integer; K_boolean; K_bit; K_bit_vector; K_natural; K_range;
    K_true; K_false; K_null; K_par; K_shared; K_us; K_ns; K_ms;
  |]

let keyword_to_string = function
  | K_entity -> "entity" | K_is -> "is" | K_port -> "port" | K_in -> "in"
  | K_out -> "out" | K_inout -> "inout" | K_end -> "end"
  | K_architecture -> "architecture" | K_of -> "of" | K_begin -> "begin"
  | K_process -> "process" | K_procedure -> "procedure" | K_function -> "function"
  | K_variable -> "variable" | K_signal -> "signal" | K_constant -> "constant"
  | K_type -> "type" | K_array -> "array" | K_to -> "to" | K_downto -> "downto"
  | K_if -> "if" | K_then -> "then" | K_elsif -> "elsif" | K_else -> "else"
  | K_case -> "case" | K_when -> "when" | K_others -> "others"
  | K_for -> "for" | K_loop -> "loop" | K_while -> "while" | K_wait -> "wait"
  | K_until -> "until" | K_on -> "on" | K_return -> "return"
  | K_and -> "and" | K_or -> "or" | K_not -> "not" | K_xor -> "xor"
  | K_mod -> "mod" | K_rem -> "rem" | K_abs -> "abs"
  | K_integer -> "integer" | K_boolean -> "boolean" | K_bit -> "bit"
  | K_bit_vector -> "bit_vector" | K_natural -> "natural" | K_range -> "range"
  | K_true -> "true" | K_false -> "false" | K_null -> "null" | K_par -> "par"
  | K_shared -> "shared" | K_us -> "us" | K_ns -> "ns" | K_ms -> "ms"

let to_string = function
  | Ident s -> s
  | Int_lit n -> string_of_int n
  | Str_lit s -> Printf.sprintf "%S" s
  | Keyword k -> keyword_to_string k
  | Lparen -> "(" | Rparen -> ")"
  | Semicolon -> ";" | Colon -> ":" | Comma -> "," | Dot -> "."
  | Assign -> ":=" | Arrow -> "=>" | Le_or_sigassign -> "<="
  | Lt -> "<" | Gt -> ">" | Ge -> ">=" | Eq -> "=" | Neq -> "/="
  | Plus -> "+" | Minus -> "-" | Star -> "*" | Slash -> "/" | Amp -> "&"
  | Tick -> "'"
  | Bar -> "|"
  | Eof -> "<eof>"

(* Structural equality without the polymorphic compare: the parser asks
   it of every token it expects. *)
let equal a b =
  match (a, b) with
  | Ident x, Ident y | Str_lit x, Str_lit y -> String.equal x y
  | Int_lit x, Int_lit y -> Int.equal x y
  | Keyword x, Keyword y -> x == y
  | (Ident _ | Int_lit _ | Str_lit _ | Keyword _), _ -> false
  | _ -> a == b
