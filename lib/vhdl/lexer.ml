(* A pull scanner: [next] scans one token from [pos] and leaves its
   location in [tok_line]/[tok_col], so nothing is built per character and
   a punctuation or keyword token allocates nothing. *)
type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
  mutable tok_line : int;
  mutable tok_col : int;
  mutable count : int;
}

let create src =
  let len = String.length src in
  { src; len; pos = 0; line = 1; bol = 0; tok_line = 1; tok_col = 1; count = 0 }

let loc lx = Loc.make ~line:lx.tok_line ~col:lx.tok_col
let count lx = lx.count

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_alpha c || is_digit c

let newline lx =
  lx.line <- lx.line + 1;
  lx.bol <- lx.pos + 1

let rec skip_trivia lx =
  if lx.pos < lx.len then
    match String.unsafe_get lx.src lx.pos with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip_trivia lx
    | '\n' ->
        newline lx;
        lx.pos <- lx.pos + 1;
        skip_trivia lx
    | '-' when lx.pos + 1 < lx.len && String.unsafe_get lx.src (lx.pos + 1) = '-' ->
        while lx.pos < lx.len && String.unsafe_get lx.src lx.pos <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        skip_trivia lx
    | _ -> ()

(* Keyword tokens bucketed by length and lowercase first letter, built
   once: a word is matched in place, case-insensitively, against the few
   keywords of its bucket. *)
let max_kw_len = 12

let kw_buckets =
  let b = Array.make ((max_kw_len + 1) * 26) [||] in
  Array.iter
    (fun k ->
      let s = Token.keyword_to_string k in
      let i = (String.length s * 26) + (Char.code s.[0] - Char.code 'a') in
      b.(i) <- Array.append b.(i) [| (s, Token.Keyword k) |])
    Token.all_keywords;
  b

let rec matches src start kw i =
  i = String.length kw
  || Char.lowercase_ascii (String.unsafe_get src (start + i)) = String.unsafe_get kw i
     && matches src start kw (i + 1)

let rec find_kw bucket src start i =
  if i = Array.length bucket then Token.Eof
  else
    let kw, tok = bucket.(i) in
    if matches src start kw 0 then tok else find_kw bucket src start (i + 1)

(* The keyword token spelled by [src.[start .. start + n - 1]], or [Eof]
   when the word is no keyword. *)
let keyword src start n =
  let c = Char.lowercase_ascii (String.unsafe_get src start) in
  if n > max_kw_len || c < 'a' || c > 'z' then Token.Eof
  else find_kw kw_buckets.((n * 26) + (Char.code c - Char.code 'a')) src start 0

let lex_word lx =
  let start = lx.pos in
  while lx.pos < lx.len && is_ident (String.unsafe_get lx.src lx.pos) do
    lx.pos <- lx.pos + 1
  done;
  let n = lx.pos - start in
  match keyword lx.src start n with
  | Token.Eof ->
      let b = Bytes.create n in
      for i = 0 to n - 1 do
        Bytes.unsafe_set b i (Char.lowercase_ascii (String.unsafe_get lx.src (start + i)))
      done;
      Token.Ident (Bytes.unsafe_to_string b)
  | kw -> kw

let lex_int lx =
  (* -1 once out of range; the rest of the literal is still consumed. *)
  let n = ref 0 in
  while lx.pos < lx.len && is_digit (String.unsafe_get lx.src lx.pos) do
    let d = Char.code (String.unsafe_get lx.src lx.pos) - Char.code '0' in
    n := if !n >= 0 && !n <= (max_int - d) / 10 then (!n * 10) + d else -1;
    lx.pos <- lx.pos + 1
  done;
  if !n < 0 then Loc.error (loc lx) "integer literal out of range" else Token.Int_lit !n

let lex_string lx =
  let start = lx.pos + 1 in
  lx.pos <- start;
  while lx.pos < lx.len && String.unsafe_get lx.src lx.pos <> '"' do
    if String.unsafe_get lx.src lx.pos = '\n' then newline lx;
    lx.pos <- lx.pos + 1
  done;
  if lx.pos >= lx.len then Loc.error (loc lx) "unterminated string literal";
  lx.pos <- lx.pos + 1;
  Token.Str_lit (String.sub lx.src start (lx.pos - 1 - start))

(* [one] or, when the next character is [second], the two-character [two]. *)
let pair lx second two one =
  if lx.pos + 1 < lx.len && String.unsafe_get lx.src (lx.pos + 1) = second then begin
    lx.pos <- lx.pos + 2;
    two
  end
  else begin
    lx.pos <- lx.pos + 1;
    one
  end

let single lx tok =
  lx.pos <- lx.pos + 1;
  tok

let next lx =
  skip_trivia lx;
  lx.tok_line <- lx.line;
  lx.tok_col <- lx.pos - lx.bol + 1;
  lx.count <- lx.count + 1;
  if lx.pos >= lx.len then Token.Eof
  else
    match String.unsafe_get lx.src lx.pos with
    | '0' .. '9' -> lex_int lx
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_word lx
    | '"' -> lex_string lx
    | ':' -> pair lx '=' Token.Assign Token.Colon
    | '=' -> pair lx '>' Token.Arrow Token.Eq
    | '<' -> pair lx '=' Token.Le_or_sigassign Token.Lt
    | '>' -> pair lx '=' Token.Ge Token.Gt
    | '/' -> pair lx '=' Token.Neq Token.Slash
    | '(' -> single lx Token.Lparen
    | ')' -> single lx Token.Rparen
    | ';' -> single lx Token.Semicolon
    | ',' -> single lx Token.Comma
    | '.' -> single lx Token.Dot
    | '+' -> single lx Token.Plus
    | '-' -> single lx Token.Minus
    | '*' -> single lx Token.Star
    | '&' -> single lx Token.Amp
    | '\'' -> single lx Token.Tick
    | '|' -> single lx Token.Bar
    | c -> Loc.error (loc lx) "illegal character %C" c

let tokenize src =
  let lx = create src in
  let rec loop acc =
    let tok = next lx in
    let acc = (tok, loc lx) :: acc in
    match tok with Token.Eof -> List.rev acc | _ -> loop acc
  in
  loop []
