(** Hand-written lexer for the behavioral-VHDL subset.

    Comments ([-- ... \n]) and whitespace are skipped; identifiers and
    keywords are case-insensitive (identifiers are lowered).  The lexer is
    a pull cursor: {!next} scans one token on demand, so a parser keeps
    only its current token and an error is reported where it first occurs
    in the source. *)

type t
(** A cursor over one source text. *)

val create : string -> t
(** [create source] is a cursor before the first token. *)

val next : t -> Token.t
(** [next lx] scans and returns the next token; at the end of input it
    returns [Token.Eof], again on every further call.  Raises [Loc.Error]
    on an illegal character, an unterminated string literal or an integer
    literal out of range. *)

val loc : t -> Loc.t
(** The location of the token {!next} returned last. *)

val count : t -> int
(** Tokens scanned so far, each [Token.Eof] returned included. *)

val tokenize : string -> (Token.t * Loc.t) list
(** [tokenize source] scans the whole input and returns the token stream
    terminated by [Token.Eof].  Raises [Loc.Error] like {!next}. *)
