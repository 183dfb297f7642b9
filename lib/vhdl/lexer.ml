type state = { src : string; mutable pos : int; mutable line : int; mutable bol : int }

let loc st = Loc.make ~line:st.line ~col:(st.pos - st.bol + 1)

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_alpha c || is_digit c

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_trivia st
  | Some '-' when st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = '-' ->
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_trivia st
  | _ -> ()

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_ident c | None -> false) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let lex_int st =
  let l = loc st and start = st.pos in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  match int_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some n -> n
  | None -> Loc.error l "integer literal out of range"

let lex_string st =
  let l = loc st in
  advance st;
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> Loc.error l "unterminated string literal"
    | Some '"' -> advance st
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        loop ()
  in
  loop ();
  Buffer.contents buf

let next_token st =
  skip_trivia st;
  let l = loc st in
  match peek st with
  | None -> (Token.Eof, l)
  | Some c when is_digit c -> (Token.Int_lit (lex_int st), l)
  | Some c when is_alpha c -> (
      let word = lex_ident st in
      match Token.keyword_of_string word with
      | Some k -> (Token.Keyword k, l)
      | None -> (Token.Ident (String.lowercase_ascii word), l))
  | Some '"' -> (Token.Str_lit (lex_string st), l)
  | Some c ->
      let two target result =
        if st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = target then begin
          advance st;
          advance st;
          Some result
        end
        else None
      in
      let tok =
        match c with
        | ':' -> (
            match two '=' Token.Assign with
            | Some t -> t
            | None ->
                advance st;
                Token.Colon)
        | '=' -> (
            match two '>' Token.Arrow with
            | Some t -> t
            | None ->
                advance st;
                Token.Eq)
        | '<' -> (
            match two '=' Token.Le_or_sigassign with
            | Some t -> t
            | None ->
                advance st;
                Token.Lt)
        | '>' -> (
            match two '=' Token.Ge with
            | Some t -> t
            | None ->
                advance st;
                Token.Gt)
        | '/' -> (
            match two '=' Token.Neq with
            | Some t -> t
            | None ->
                advance st;
                Token.Slash)
        | '(' ->
            advance st;
            Token.Lparen
        | ')' ->
            advance st;
            Token.Rparen
        | ';' ->
            advance st;
            Token.Semicolon
        | ',' ->
            advance st;
            Token.Comma
        | '.' ->
            advance st;
            Token.Dot
        | '+' ->
            advance st;
            Token.Plus
        | '-' ->
            advance st;
            Token.Minus
        | '*' ->
            advance st;
            Token.Star
        | '&' ->
            advance st;
            Token.Amp
        | '\'' ->
            advance st;
            Token.Tick
        | '|' ->
            advance st;
            Token.Bar
        | _ -> Loc.error l "illegal character %C" c
      in
      (tok, l)

let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let rec loop acc =
    let tok, l = next_token st in
    match tok with
    | Token.Eof -> List.rev ((tok, l) :: acc)
    | _ -> loop ((tok, l) :: acc)
  in
  loop []
