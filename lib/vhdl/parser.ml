open Ast

(* The parser pulls one token at a time: [tok] is the current token and
   the lexer holds its location, so a syntax error is raised before any
   later token is scanned. *)
type state = { lx : Lexer.t; mutable tok : Token.t }

let start source =
  let lx = Lexer.create source in
  { lx; tok = Lexer.next lx }

let current st = st.tok
let current_loc st = Lexer.loc st.lx
let advance st = match st.tok with Token.Eof -> () | _ -> st.tok <- Lexer.next st.lx

let fail st fmt =
  Printf.ksprintf
    (fun msg ->
      Loc.error (current_loc st) "%s (found %s)" msg (Token.to_string (current st)))
    fmt

let eat st tok =
  if Token.equal st.tok tok then advance st
  else fail st "expected %s" (Token.to_string tok)

let eat_kw st k =
  match st.tok with
  | Token.Keyword k' when k' == k -> advance st
  | _ -> fail st "expected %s" (Token.keyword_to_string k)

let accept st tok =
  if Token.equal st.tok tok then begin
    advance st;
    true
  end
  else false

let accept_kw st k =
  match st.tok with
  | Token.Keyword k' when k' == k ->
      advance st;
      true
  | _ -> false

let ident st =
  match current st with
  | Token.Ident s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

let int_lit st =
  match current st with
  | Token.Int_lit n ->
      advance st;
      n
  | Token.Minus -> (
      advance st;
      match current st with
      | Token.Int_lit n ->
          advance st;
          -n
      | _ -> fail st "expected integer literal")
  | _ -> fail st "expected integer literal"

(* --- Types ------------------------------------------------------------ *)

(* [lo to hi] after [range]; an empty range is an error located at [lo]
   (its width would be undefined). *)
let int_range st =
  let loc = current_loc st in
  let lo = int_lit st in
  eat_kw st Token.K_to;
  let hi = int_lit st in
  if hi < lo then Loc.error loc "empty integer range %d to %d" lo hi;
  Int_range (lo, hi)

let rec parse_type st =
  match current st with
  | Token.Keyword Token.K_integer ->
      advance st;
      if accept_kw st Token.K_range then int_range st else Integer
  | Token.Keyword Token.K_natural ->
      advance st;
      Natural
  | Token.Keyword Token.K_boolean ->
      advance st;
      Boolean
  | Token.Keyword Token.K_bit ->
      advance st;
      Bit
  | Token.Keyword Token.K_bit_vector ->
      advance st;
      eat st Token.Lparen;
      let a = int_lit st in
      let width =
        if accept_kw st Token.K_downto then begin
          let b = int_lit st in
          a - b + 1
        end
        else if accept_kw st Token.K_to then begin
          let b = int_lit st in
          b - a + 1
        end
        else a
      in
      eat st Token.Rparen;
      Bit_vector width
  | Token.Ident name ->
      advance st;
      Named name
  | _ -> fail st "expected a type"

(* A full type definition, as in [type t is array (1 to 384) of integer]. *)
and parse_type_def st =
  if accept_kw st Token.K_array then begin
    eat st Token.Lparen;
    let a = int_lit st in
    let downto_ = accept_kw st Token.K_downto in
    if not downto_ then eat_kw st Token.K_to;
    let b = int_lit st in
    eat st Token.Rparen;
    eat_kw st Token.K_of;
    let elem = parse_type st in
    let lo = min a b and hi = max a b in
    Array_of { length = hi - lo + 1; lo; elem }
  end
  else if accept_kw st Token.K_range then int_range st
  else parse_type st

(* --- Expressions ------------------------------------------------------ *)

let rec parse_expr_prec st = parse_or st

and parse_or st = or_rest st (parse_and st)

and or_rest st lhs =
  if accept_kw st Token.K_or then or_rest st (Binop (Or, lhs, parse_and st))
  else if accept_kw st Token.K_xor then or_rest st (Binop (Xor, lhs, parse_and st))
  else lhs

and parse_and st = and_rest st (parse_rel st)

and and_rest st lhs =
  if accept_kw st Token.K_and then and_rest st (Binop (And, lhs, parse_rel st)) else lhs

and parse_rel st =
  let lhs = parse_add st in
  match current st with
  | Token.Eq ->
      advance st;
      Binop (Eq, lhs, parse_add st)
  | Token.Neq ->
      advance st;
      Binop (Neq, lhs, parse_add st)
  | Token.Lt ->
      advance st;
      Binop (Lt, lhs, parse_add st)
  | Token.Le_or_sigassign ->
      advance st;
      Binop (Le, lhs, parse_add st)
  | Token.Gt ->
      advance st;
      Binop (Gt, lhs, parse_add st)
  | Token.Ge ->
      advance st;
      Binop (Ge, lhs, parse_add st)
  | _ -> lhs

and parse_add st = add_rest st (parse_mul st)

and add_rest st lhs =
  match current st with
  | Token.Plus ->
      advance st;
      add_rest st (Binop (Add, lhs, parse_mul st))
  | Token.Minus ->
      advance st;
      add_rest st (Binop (Sub, lhs, parse_mul st))
  | Token.Amp ->
      advance st;
      add_rest st (Binop (Concat, lhs, parse_mul st))
  | _ -> lhs

and parse_mul st = mul_rest st (parse_unary st)

and mul_rest st lhs =
  match current st with
  | Token.Star ->
      advance st;
      mul_rest st (Binop (Mul, lhs, parse_unary st))
  | Token.Slash ->
      advance st;
      mul_rest st (Binop (Div, lhs, parse_unary st))
  | Token.Keyword Token.K_mod ->
      advance st;
      mul_rest st (Binop (Mod, lhs, parse_unary st))
  | Token.Keyword Token.K_rem ->
      advance st;
      mul_rest st (Binop (Rem, lhs, parse_unary st))
  | _ -> lhs

and parse_unary st =
  match current st with
  | Token.Minus ->
      advance st;
      Unop (Neg, parse_unary st)
  | Token.Keyword Token.K_not ->
      advance st;
      Unop (Not, parse_unary st)
  | Token.Keyword Token.K_abs ->
      advance st;
      Unop (Abs, parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  match current st with
  | Token.Int_lit n ->
      advance st;
      Int_lit n
  | Token.Keyword Token.K_true ->
      advance st;
      Bool_lit true
  | Token.Keyword Token.K_false ->
      advance st;
      Bool_lit false
  | Token.Lparen ->
      advance st;
      let e = parse_expr_prec st in
      eat st Token.Rparen;
      e
  | Token.Ident name -> (
      advance st;
      match current st with
      | Token.Tick ->
          advance st;
          let attr = ident st in
          Attr (name, attr)
      | Token.Lparen ->
          advance st;
          let args = parse_args st in
          eat st Token.Rparen;
          (* A single argument could be an array index or a one-argument
             call; {!Sem} disambiguates from the symbol kind.  We encode as
             [Index] when one argument, [Call] otherwise, and let Sem
             re-interpret [Index] of a function name as a call. *)
          (match args with [ e ] -> Index (name, e) | _ -> Call (name, args))
      | _ -> Name name)
  | _ -> fail st "expected an expression"

and parse_args st = List.rev (args_rest st [ parse_expr_prec st ])

and args_rest st acc =
  if accept st Token.Comma then args_rest st (parse_expr_prec st :: acc) else acc

(* --- Statements ------------------------------------------------------- *)

let parse_target_of_expr st e =
  match e with
  | Name n -> Tname n
  | Index (n, i) -> Tindex (n, i)
  | _ -> fail st "expected an assignable name"

(* Where a statement list ends: at [end], and in an if arm or a case
   alternative also at the next arm. *)
let stop_end = function Token.Keyword Token.K_end -> true | _ -> false

let stop_if_arm = function
  | Token.Keyword (Token.K_end | Token.K_elsif | Token.K_else) -> true
  | _ -> false

let stop_case_alt = function
  | Token.Keyword (Token.K_end | Token.K_when) -> true
  | _ -> false

let rec parse_stmts st stop = stmts_rest st stop []

and stmts_rest st stop acc =
  if stop (current st) then List.rev acc else stmts_rest st stop (parse_stmt st :: acc)

and parse_stmt st =
  match current st with
  | Token.Keyword Token.K_if -> parse_if st
  | Token.Keyword Token.K_case -> parse_case st
  | Token.Keyword Token.K_for -> parse_for st
  | Token.Keyword Token.K_while ->
      advance st;
      let cond = parse_expr_prec st in
      eat_kw st Token.K_loop;
      let body = parse_stmts st stop_end in
      eat_kw st Token.K_end;
      eat_kw st Token.K_loop;
      eat st Token.Semicolon;
      While (cond, body)
  | Token.Keyword Token.K_loop ->
      advance st;
      let body = parse_stmts st stop_end in
      eat_kw st Token.K_end;
      eat_kw st Token.K_loop;
      eat st Token.Semicolon;
      Loop_forever body
  | Token.Keyword Token.K_par -> parse_par st
  | Token.Keyword Token.K_wait -> parse_wait st
  | Token.Keyword Token.K_return ->
      advance st;
      if accept st Token.Semicolon then Return None
      else begin
        let e = parse_expr_prec st in
        eat st Token.Semicolon;
        Return (Some e)
      end
  | Token.Keyword Token.K_null ->
      advance st;
      eat st Token.Semicolon;
      Null_stmt
  | Token.Ident "exit" ->
      advance st;
      eat st Token.Semicolon;
      Exit_loop
  | Token.Ident _ -> parse_simple st
  | _ -> fail st "expected a statement"

and parse_simple st =
  (* Assignment, signal assignment, or procedure call, all beginning with a
     name.  [send]/[receive] calls become message-pass statements. *)
  let e = parse_primary st in
  match current st with
  | Token.Assign ->
      let tgt = parse_target_of_expr st e in
      advance st;
      let rhs = parse_expr_prec st in
      eat st Token.Semicolon;
      Assign (tgt, rhs)
  | Token.Le_or_sigassign ->
      let tgt = parse_target_of_expr st e in
      advance st;
      let rhs = parse_expr_prec st in
      eat st Token.Semicolon;
      Signal_assign (tgt, rhs)
  | Token.Semicolon ->
      advance st;
      (match e with
      | Name n -> Pcall (n, [])
      | Index ("send", _) | Call ("send", _) ->
          let args = (match e with Index (_, a) -> [ a ] | Call (_, a) -> a | _ -> []) in
          (match args with
          | [ Name ch; payload ] -> Send (ch, payload)
          | _ -> fail st "send expects (channel, expression)")
      | Index ("receive", _) | Call ("receive", _) ->
          let args = (match e with Index (_, a) -> [ a ] | Call (_, a) -> a | _ -> []) in
          (match args with
          | [ Name ch; Name v ] -> Receive (ch, Tname v)
          | [ Name ch; Index (v, i) ] -> Receive (ch, Tindex (v, i))
          | _ -> fail st "receive expects (channel, target)")
      | Index (n, arg) -> Pcall (n, [ arg ])
      | Call (n, args) -> Pcall (n, args)
      | _ -> fail st "expected a call or assignment")
  | _ -> fail st "expected ':=', '<=' or ';'"

and parse_if st =
  eat_kw st Token.K_if;
  let cond = parse_expr_prec st in
  eat_kw st Token.K_then;
  let body = parse_stmts st stop_if_arm in
  let rec arms acc =
    if accept_kw st Token.K_elsif then begin
      let c = parse_expr_prec st in
      eat_kw st Token.K_then;
      let b = parse_stmts st stop_if_arm in
      arms ((c, b) :: acc)
    end
    else List.rev acc
  in
  let all_arms = arms [ (cond, body) ] in
  let else_body =
    if accept_kw st Token.K_else then parse_stmts st stop_end else []
  in
  eat_kw st Token.K_end;
  eat_kw st Token.K_if;
  eat st Token.Semicolon;
  If (all_arms, else_body)

and parse_case st =
  eat_kw st Token.K_case;
  let subject = parse_expr_prec st in
  eat_kw st Token.K_is;
  let rec alts acc =
    if accept_kw st Token.K_when then begin
      let rec choices acc =
        let c =
          if accept_kw st Token.K_others then Ch_others else Ch_expr (parse_expr_prec st)
        in
        if accept st Token.Bar then choices (c :: acc) else List.rev (c :: acc)
      in
      let cs = choices [] in
      eat st Token.Arrow;
      let body = parse_stmts st stop_case_alt in
      alts ((cs, body) :: acc)
    end
    else List.rev acc
  in
  let alternatives = alts [] in
  eat_kw st Token.K_end;
  eat_kw st Token.K_case;
  eat st Token.Semicolon;
  Case (subject, alternatives)

and parse_for st =
  eat_kw st Token.K_for;
  let var = ident st in
  eat_kw st Token.K_in;
  let a = int_lit st in
  let downto_ = accept_kw st Token.K_downto in
  if not downto_ then eat_kw st Token.K_to;
  let b = int_lit st in
  eat_kw st Token.K_loop;
  let body = parse_stmts st stop_end in
  eat_kw st Token.K_end;
  eat_kw st Token.K_loop;
  eat st Token.Semicolon;
  let lo = min a b and hi = max a b in
  For (var, lo, hi, body)

and parse_par st =
  eat_kw st Token.K_par;
  let rec calls acc =
    if stop_end (current st) then List.rev acc
    else begin
      let name = ident st in
      let args =
        if accept st Token.Lparen then begin
          let a = parse_args st in
          eat st Token.Rparen;
          a
        end
        else []
      in
      eat st Token.Semicolon;
      calls ((name, args) :: acc)
    end
  in
  let body = calls [] in
  eat_kw st Token.K_end;
  eat_kw st Token.K_par;
  eat st Token.Semicolon;
  Par body

and parse_wait st =
  eat_kw st Token.K_wait;
  if accept_kw st Token.K_for then begin
    let n = int_lit st in
    let unit_ =
      if accept_kw st Token.K_ns then Ns
      else if accept_kw st Token.K_us then Us
      else if accept_kw st Token.K_ms then Ms
      else fail st "expected a time unit (ns/us/ms)"
    in
    eat st Token.Semicolon;
    Wait_for (n, unit_)
  end
  else if accept_kw st Token.K_until then begin
    let e = parse_expr_prec st in
    eat st Token.Semicolon;
    Wait_until e
  end
  else if accept_kw st Token.K_on then begin
    let rec names acc =
      let n = ident st in
      if accept st Token.Comma then names (n :: acc) else List.rev (n :: acc)
    in
    let ns = names [] in
    eat st Token.Semicolon;
    Wait_on ns
  end
  else begin
    eat st Token.Semicolon;
    Wait_on []
  end

(* --- Declarations ------------------------------------------------------ *)

let parse_ident_list st =
  let rec loop acc =
    let n = ident st in
    if accept st Token.Comma then loop (n :: acc) else List.rev (n :: acc)
  in
  loop []

let rec parse_decls st =
  let rec loop acc =
    match current st with
    | Token.Keyword Token.K_shared ->
        advance st;
        eat_kw st Token.K_variable;
        loop (List.rev_append (parse_var_decl st ~shared:true) acc)
    | Token.Keyword Token.K_variable ->
        advance st;
        loop (List.rev_append (parse_var_decl st ~shared:false) acc)
    | Token.Keyword Token.K_signal ->
        advance st;
        let names = parse_ident_list st in
        eat st Token.Colon;
        let ty = parse_type st in
        eat st Token.Semicolon;
        loop (List.rev_append (List.map (fun s_name -> Sig_decl { s_name; s_type = ty }) names) acc)
    | Token.Keyword Token.K_constant ->
        advance st;
        let name = ident st in
        eat st Token.Colon;
        let ty = parse_type st in
        eat st Token.Assign;
        let v = parse_expr_prec st in
        eat st Token.Semicolon;
        loop (Const_decl { c_name = name; c_type = ty; c_value = v } :: acc)
    | Token.Keyword Token.K_type ->
        advance st;
        let name = ident st in
        eat_kw st Token.K_is;
        let td = parse_type_def st in
        eat st Token.Semicolon;
        loop (Type_decl (name, td) :: acc)
    | _ -> List.rev acc
  in
  loop []

and parse_var_decl st ~shared =
  let names = parse_ident_list st in
  eat st Token.Colon;
  let ty = parse_type st in
  let init = if accept st Token.Assign then Some (parse_expr_prec st) else None in
  eat st Token.Semicolon;
  List.map
    (fun v_name -> Var_decl { v_name; v_type = ty; v_init = init; v_shared = shared })
    names

(* --- Subprograms, processes, design ------------------------------------ *)

let parse_params st =
  if accept st Token.Lparen then begin
    let rec group acc =
      let names = parse_ident_list st in
      eat st Token.Colon;
      let mode =
        if accept_kw st Token.K_in then In
        else if accept_kw st Token.K_out then Out
        else if accept_kw st Token.K_inout then Inout
        else In
      in
      let ty = parse_type st in
      let params =
        List.map (fun par_name -> { par_name; par_mode = mode; par_type = ty }) names
      in
      if accept st Token.Semicolon then group (List.rev_append params acc)
      else List.rev (List.rev_append params acc)
    in
    let ps = group [] in
    eat st Token.Rparen;
    ps
  end
  else []

let parse_subprogram st ~is_function =
  let name = ident st in
  let params = parse_params st in
  let ret =
    if is_function then begin
      eat_kw st Token.K_return;
      Some (parse_type st)
    end
    else None
  in
  eat_kw st Token.K_is;
  let decls = parse_decls st in
  eat_kw st Token.K_begin;
  let body = parse_stmts st stop_end in
  eat_kw st Token.K_end;
  (match current st with
  | Token.Ident _ -> ignore (ident st)
  | Token.Keyword Token.K_procedure | Token.Keyword Token.K_function -> advance st
  | _ -> ());
  (match current st with Token.Ident _ -> ignore (ident st) | _ -> ());
  eat st Token.Semicolon;
  { sub_name = name; sub_params = params; sub_ret = ret; sub_decls = decls; sub_body = body }

let parse_process st ~label =
  eat_kw st Token.K_process;
  if accept st Token.Lparen then begin
    ignore (parse_ident_list st);
    eat st Token.Rparen
  end;
  ignore (accept_kw st Token.K_is);
  let decls = parse_decls st in
  eat_kw st Token.K_begin;
  let body = parse_stmts st stop_end in
  eat_kw st Token.K_end;
  eat_kw st Token.K_process;
  (match current st with Token.Ident _ -> ignore (ident st) | _ -> ());
  eat st Token.Semicolon;
  { proc_name = label; proc_decls = decls; proc_body = body }

let parse_entity st =
  eat_kw st Token.K_entity;
  let name = ident st in
  eat_kw st Token.K_is;
  let ports =
    if accept_kw st Token.K_port then begin
      eat st Token.Lparen;
      let rec group acc =
        let names = parse_ident_list st in
        eat st Token.Colon;
        let mode =
          if accept_kw st Token.K_in then In
          else if accept_kw st Token.K_out then Out
          else if accept_kw st Token.K_inout then Inout
          else fail st "expected a port mode"
        in
        let ty = parse_type st in
        let ps = List.map (fun port_name -> { port_name; port_mode = mode; port_type = ty }) names in
        if accept st Token.Semicolon then group (List.rev_append ps acc)
        else List.rev (List.rev_append ps acc)
      in
      let ps = group [] in
      eat st Token.Rparen;
      eat st Token.Semicolon;
      ps
    end
    else []
  in
  eat_kw st Token.K_end;
  (match current st with
  | Token.Ident _ -> ignore (ident st)
  | Token.Keyword Token.K_entity ->
      advance st;
      (match current st with Token.Ident _ -> ignore (ident st) | _ -> ())
  | _ -> ());
  eat st Token.Semicolon;
  (name, ports)

let parse_architecture st =
  eat_kw st Token.K_architecture;
  let arch_name = ident st in
  eat_kw st Token.K_of;
  let _entity = ident st in
  eat_kw st Token.K_is;
  let rec decl_part decls subs =
    match current st with
    | Token.Keyword Token.K_procedure ->
        advance st;
        let s = parse_subprogram st ~is_function:false in
        decl_part decls (s :: subs)
    | Token.Keyword Token.K_function ->
        advance st;
        let s = parse_subprogram st ~is_function:true in
        decl_part decls (s :: subs)
    | Token.Keyword (Token.K_variable | Token.K_shared | Token.K_signal | Token.K_constant | Token.K_type) ->
        let ds = parse_decls st in
        decl_part (decls @ ds) subs
    | _ -> (decls, List.rev subs)
  in
  let decls, subs = decl_part [] [] in
  eat_kw st Token.K_begin;
  let rec procs acc =
    match current st with
    | Token.Ident label ->
        advance st;
        eat st Token.Colon;
        let p = parse_process st ~label in
        procs (p :: acc)
    | _ -> List.rev acc
  in
  let processes = procs [] in
  eat_kw st Token.K_end;
  (match current st with
  | Token.Ident _ -> ignore (ident st)
  | Token.Keyword Token.K_architecture ->
      advance st;
      (match current st with Token.Ident _ -> ignore (ident st) | _ -> ())
  | _ -> ());
  eat st Token.Semicolon;
  (arch_name, decls, subs, processes)

let expect_eof st what =
  match current st with Token.Eof -> () | _ -> fail st "trailing input after %s" what

let parse source =
  Slif_obs.Span.with_ "vhdl.parse" @@ fun () ->
  let st = start source in
  let entity_name, ports = parse_entity st in
  let arch_name, arch_decls, subprograms, processes = parse_architecture st in
  expect_eof st "design";
  Slif_obs.Counter.add "parse.tokens" (Lexer.count st.lx);
  { entity_name; ports; arch_name; arch_decls; subprograms; processes }

let parse_expr source =
  let st = start source in
  let e = parse_expr_prec st in
  expect_eof st "expression";
  e
