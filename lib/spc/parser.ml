module Token = Vhdl.Token
module Loc = Vhdl.Loc

type state = { toks : (Token.t * Loc.t) array; mutable pos : int }

let current st = fst st.toks.(st.pos)
let current_loc st = snd st.toks.(st.pos)
let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let fail st fmt =
  Printf.ksprintf
    (fun msg ->
      Loc.error (current_loc st) "%s (found %s)" msg (Token.to_string (current st)))
    fmt

let eat st tok =
  if Token.equal (current st) tok then advance st
  else fail st "expected %s" (Token.to_string tok)

let accept st tok =
  if Token.equal (current st) tok then begin
    advance st;
    true
  end
  else false

let ident st =
  match current st with
  | Token.Ident s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

let keyword_ident st expected =
  match current st with
  | Token.Ident s when s = expected -> advance st
  | _ -> fail st "expected '%s'" expected

let at_ident st name = match current st with Token.Ident s -> s = name | _ -> false

(* --- Token-slice re-parsing -------------------------------------------------

   Leaf bodies, declaration regions, transition guards and the port clause
   are re-rendered to text and fed to the VHDL parser, so their grammar is
   exactly the VHDL subset's. *)

let render tokens = String.concat " " (List.map Token.to_string tokens)

let slice st ~from_ =
  Array.to_list (Array.sub st.toks from_ (st.pos - from_)) |> List.map fst

(* Statements between 'begin' and the matching 'end': every [if], [case],
   [loop] and [par] opens one more 'end'; 'end' closes one and swallows
   its tag token. *)
let skip_leaf_body st =
  let depth = ref 1 in
  let continue_ = ref true in
  while !continue_ do
    match current st with
    | Token.Eof -> fail st "unterminated leaf behavior"
    | Token.Keyword Token.K_end ->
        decr depth;
        if !depth = 0 then continue_ := false
        else begin
          advance st;
          match current st with
          | Token.Keyword (Token.K_if | Token.K_loop | Token.K_case | Token.K_par)
          | Token.Ident _ ->
              advance st
          | _ -> ()
        end
    | Token.Keyword (Token.K_if | Token.K_case | Token.K_loop | Token.K_par) ->
        incr depth;
        advance st
    | _ -> advance st
  done

let parse_vhdl_fragment ~decls_text ~body_text =
  let source =
    Printf.sprintf
      {|entity frag is end;
architecture a of frag is
begin
  frag_proc: process
%s
  begin
%s
  end process;
end;|}
      decls_text body_text
  in
  match (Vhdl.Parser.parse source).Vhdl.Ast.processes with
  | [ p ] -> (p.Vhdl.Ast.proc_decls, p.Vhdl.Ast.proc_body)
  | _ -> assert false

let parse_port_fragment ~port_text =
  let source =
    Printf.sprintf {|entity frag is
  port ( %s );
end;
architecture a of frag is
begin
end;|}
      port_text
  in
  (Vhdl.Parser.parse source).Vhdl.Ast.ports

(* --- SpecCharts structure ----------------------------------------------- *)

let parse_kind st =
  match current st with
  | Token.Ident "seq" | Token.Ident "sequential" ->
      advance st;
      Ast.Sequential
  | Token.Keyword Token.K_par ->
      advance st;
      Ast.Concurrent
  | Token.Ident "code" | Token.Ident "leaf" ->
      advance st;
      Ast.Leaf
  | _ -> fail st "expected a behavior type: seq, par or code"

(* Declarations run until 'begin' (leaves) or until a child 'behavior' /
   'transitions' / 'end' (composites). *)
let skip_decls st =
  let continue_ = ref true in
  while !continue_ do
    match current st with
    | Token.Keyword (Token.K_begin | Token.K_end) -> continue_ := false
    | Token.Ident ("behavior" | "transitions") -> continue_ := false
    | Token.Eof -> fail st "unterminated declarations"
    | _ -> advance st
  done

let parse_transition st =
  let tr_from = ident st in
  eat st Token.Minus;
  eat st Token.Gt;
  let tr_to = ident st in
  let tr_cond =
    if accept st (Token.Keyword Token.K_on) then begin
      let start = st.pos in
      while current st <> Token.Semicolon && current st <> Token.Eof do
        advance st
      done;
      Some (Vhdl.Parser.parse_expr (render (slice st ~from_:start)))
    end
    else None
  in
  eat st Token.Semicolon;
  { Ast.tr_from; tr_to; tr_cond }

let rec parse_behavior st =
  keyword_ident st "behavior";
  let name = ident st in
  (* 'type' is a VHDL keyword, so it arrives as a keyword token. *)
  eat st (Token.Keyword Token.K_type);
  let kind = parse_kind st in
  eat st (Token.Keyword Token.K_is);
  let decl_start = st.pos in
  skip_decls st;
  let decls_text = render (slice st ~from_:decl_start) in
  let decls, body, children, transitions =
    match kind with
    | Ast.Leaf ->
        eat st (Token.Keyword Token.K_begin);
        let body_start = st.pos in
        skip_leaf_body st;
        let body_text = render (slice st ~from_:body_start) in
        let decls, body = parse_vhdl_fragment ~decls_text ~body_text in
        (decls, body, [], [])
    | Ast.Sequential | Ast.Concurrent ->
        let decls, _ = parse_vhdl_fragment ~decls_text ~body_text:"null;" in
        let children = ref [] in
        while at_ident st "behavior" do
          children := parse_behavior st :: !children
        done;
        let transitions = ref [] in
        if at_ident st "transitions" then begin
          keyword_ident st "transitions";
          while not (current st = Token.Keyword Token.K_end) do
            transitions := parse_transition st :: !transitions
          done
        end;
        (decls, [], List.rev !children, List.rev !transitions)
  in
  eat st (Token.Keyword Token.K_end);
  (match current st with Token.Ident _ -> ignore (ident st) | _ -> ());
  eat st Token.Semicolon;
  if kind <> Ast.Leaf && children = [] then
    fail st "composite behavior %s has no children" name;
  {
    Ast.b_name = name;
    b_kind = kind;
    b_decls = decls;
    b_body = body;
    b_children = children;
    b_transitions = transitions;
  }

let parse_ports st =
  if accept st (Token.Keyword Token.K_port) then begin
    eat st Token.Lparen;
    let start = st.pos in
    let depth = ref 1 in
    while !depth > 0 do
      (match current st with
      | Token.Lparen -> incr depth
      | Token.Rparen -> decr depth
      | Token.Eof -> fail st "unterminated port clause"
      | _ -> ());
      if !depth > 0 then advance st
    done;
    let text = render (slice st ~from_:start) in
    eat st Token.Rparen;
    eat st Token.Semicolon;
    parse_port_fragment ~port_text:text
  end
  else []

let parse source =
  let st = { toks = Array.of_list (Vhdl.Lexer.tokenize source); pos = 0 } in
  keyword_ident st "spec";
  let spec_name = ident st in
  eat st (Token.Keyword Token.K_is);
  let spec_ports = parse_ports st in
  let spec_top = parse_behavior st in
  eat st (Token.Keyword Token.K_end);
  (match current st with Token.Ident _ -> ignore (ident st) | _ -> ());
  eat st Token.Semicolon;
  if current st <> Token.Eof then fail st "trailing input after specification";
  { Ast.spec_name; spec_ports; spec_top }
