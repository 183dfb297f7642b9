open Vhdl

let expr = Parser.parse_expr

let expr_testable =
  Alcotest.testable (fun fmt e -> Format.pp_print_string fmt (Pretty.expr_to_string e)) ( = )

let check_expr = Alcotest.check expr_testable

let test_precedence_arith () =
  check_expr "mul binds tighter than add"
    Ast.(Binop (Add, Int_lit 1, Binop (Mul, Int_lit 2, Name "x")))
    (expr "1 + 2 * x");
  check_expr "left associativity"
    Ast.(Binop (Sub, Binop (Sub, Int_lit 9, Int_lit 3), Int_lit 2))
    (expr "9 - 3 - 2");
  check_expr "parens override"
    Ast.(Binop (Mul, Binop (Add, Int_lit 1, Int_lit 2), Name "x"))
    (expr "(1 + 2) * x")

let test_precedence_bool () =
  check_expr "and binds tighter than or"
    Ast.(Binop (Or, Name "a", Binop (And, Name "b", Name "c")))
    (expr "a or b and c");
  check_expr "relational below and"
    Ast.(Binop (And, Binop (Lt, Name "a", Int_lit 1), Binop (Gt, Name "b", Int_lit 2)))
    (expr "a < 1 and b > 2")

let test_unary () =
  check_expr "negation" Ast.(Unop (Neg, Name "x")) (expr "-x");
  check_expr "not" Ast.(Unop (Not, Name "p")) (expr "not p");
  check_expr "abs" Ast.(Unop (Abs, Name "x")) (expr "abs x")

let test_mod_rem () =
  check_expr "mod" Ast.(Binop (Mod, Name "x", Int_lit 16)) (expr "x mod 16");
  check_expr "rem" Ast.(Binop (Rem, Name "x", Int_lit 3)) (expr "x rem 3")

let test_index_vs_call () =
  check_expr "single arg is Index" Ast.(Index ("a", Name "i")) (expr "a(i)");
  check_expr "two args is Call"
    Ast.(Call ("min2", [ Name "x"; Name "y" ]))
    (expr "min2(x, y)")

let test_attr () =
  check_expr "attribute" Ast.(Attr ("arr", "length")) (expr "arr'length")

let parse_tiny body =
  Parser.parse
    (Printf.sprintf
       {|entity e is end;
architecture a of e is
begin
  p: process
  begin
%s
  end process;
end;|}
       body)

let first_stmt body =
  match (parse_tiny body).Ast.processes with
  | [ { proc_body = [ s ]; _ } ] -> s
  | _ -> Alcotest.fail "expected one statement"

let test_if_elsif_else () =
  match first_stmt "if a = 1 then x := 1; elsif a = 2 then x := 2; else x := 3; end if;" with
  | Ast.If (arms, els) ->
      Alcotest.(check int) "two arms" 2 (List.length arms);
      Alcotest.(check int) "else body" 1 (List.length els)
  | _ -> Alcotest.fail "expected if"

let test_case_with_choices () =
  match
    first_stmt "case v is when 1 | 2 => x := 1; when others => x := 0; end case;"
  with
  | Ast.Case (_, [ (choices, _); ([ Ast.Ch_others ], _) ]) ->
      Alcotest.(check int) "two choices in first alt" 2 (List.length choices)
  | _ -> Alcotest.fail "expected case with two alternatives"

let test_for_normalizes_downto () =
  (match first_stmt "for i in 5 downto 1 loop x := i; end loop;" with
  | Ast.For (_, 1, 5, _) -> ()
  | _ -> Alcotest.fail "expected normalized for range");
  match first_stmt "for i in 1 to 5 loop x := i; end loop;" with
  | Ast.For (_, 1, 5, _) -> ()
  | _ -> Alcotest.fail "expected for 1..5"

let test_while_and_forever () =
  (match first_stmt "while x < 10 loop x := x + 1; end loop;" with
  | Ast.While (_, [ _ ]) -> ()
  | _ -> Alcotest.fail "expected while");
  match first_stmt "loop x := 1; end loop;" with
  | Ast.Loop_forever [ _ ] -> ()
  | _ -> Alcotest.fail "expected forever loop"

let test_par_block () =
  match first_stmt "par a; b(1); end par;" with
  | Ast.Par [ ("a", []); ("b", [ Ast.Int_lit 1 ]) ] -> ()
  | _ -> Alcotest.fail "expected par of two calls"

let test_send_receive () =
  (match first_stmt "send(chan1, x + 1);" with
  | Ast.Send ("chan1", Ast.Binop (Ast.Add, _, _)) -> ()
  | _ -> Alcotest.fail "expected send");
  match first_stmt "receive(chan1, buf(3));" with
  | Ast.Receive ("chan1", Ast.Tindex ("buf", Ast.Int_lit 3)) -> ()
  | _ -> Alcotest.fail "expected receive into an element"

let test_wait_forms () =
  (match first_stmt "wait for 100 ns;" with
  | Ast.Wait_for (100, Ast.Ns) -> ()
  | _ -> Alcotest.fail "wait for");
  (match first_stmt "wait until x > 3;" with
  | Ast.Wait_until _ -> ()
  | _ -> Alcotest.fail "wait until");
  (match first_stmt "wait on a, b;" with
  | Ast.Wait_on [ "a"; "b" ] -> ()
  | _ -> Alcotest.fail "wait on");
  match first_stmt "wait;" with
  | Ast.Wait_on [] -> ()
  | _ -> Alcotest.fail "bare wait"

let test_signal_vs_variable_assign () =
  (match first_stmt "y <= x;" with
  | Ast.Signal_assign (Ast.Tname "y", _) -> ()
  | _ -> Alcotest.fail "signal assign");
  match first_stmt "y := x;" with
  | Ast.Assign (Ast.Tname "y", _) -> ()
  | _ -> Alcotest.fail "variable assign"

let test_entity_ports () =
  let d =
    Parser.parse
      {|entity top is
  port ( a, b : in integer; y : out integer range 0 to 7 );
end;
architecture rtl of top is
begin
end;|}
  in
  Alcotest.(check int) "three ports" 3 (List.length d.Ast.ports);
  match d.Ast.ports with
  | [ pa; _; py ] ->
      Alcotest.(check string) "first port" "a" pa.Ast.port_name;
      Alcotest.(check bool) "a is input" true (pa.Ast.port_mode = Ast.In);
      Alcotest.(check bool) "y is output" true (py.Ast.port_mode = Ast.Out)
  | _ -> Alcotest.fail "port shapes"

let test_subprograms_and_decls () =
  let d =
    Parser.parse
      {|entity e is end;
architecture a of e is
  type buf is array (1 to 8) of integer range 0 to 255;
  shared variable v : buf;
  constant k : integer := 42;
  signal s : bit;
  function f(x : in integer) return integer is
  begin
    return x + k;
  end f;
  procedure p(a : in integer; b : out integer) is
    variable t : integer;
  begin
    t := f(a);
    b := t;
  end p;
begin
  main: process
  begin
    p(1, 2);
    wait for 1 us;
  end process;
end;|}
  in
  Alcotest.(check int) "two subprograms" 2 (List.length d.Ast.subprograms);
  Alcotest.(check int) "four arch decls" 4 (List.length d.Ast.arch_decls);
  match d.Ast.subprograms with
  | [ f; p ] ->
      Alcotest.(check bool) "f is a function" true (f.Ast.sub_ret <> None);
      Alcotest.(check bool) "p is a procedure" true (p.Ast.sub_ret = None);
      Alcotest.(check int) "p has two params" 2 (List.length p.Ast.sub_params)
  | _ -> Alcotest.fail "subprogram shapes"

let test_roundtrip_through_pretty () =
  List.iter
    (fun (spec : Specs.Registry.spec) ->
      let d1 = Parser.parse spec.source in
      let d2 = Parser.parse (Pretty.design_to_string d1) in
      Alcotest.(check bool)
        (spec.spec_name ^ " round-trips") true (d1 = d2))
    Specs.Registry.all

let test_error_has_location () =
  match Parser.parse "entity e is end" with
  | exception Loc.Error (loc, _) ->
      Alcotest.(check bool) "line 1" true (String.length (Loc.to_string loc) > 0)
  | _ -> Alcotest.fail "expected parse error"

let test_trailing_garbage_rejected () =
  let src = {|entity e is end;
architecture a of e is
begin
end;
garbage|} in
  match Parser.parse src with
  | exception Loc.Error _ -> ()
  | _ -> Alcotest.fail "expected trailing-input error"

(* --- Front-end parity --------------------------------------------------- *)

(* [vhdl.tokens_per_s] divides the [parse.tokens] counter by parse time;
   the counter must count exactly the tokens [tokenize] returns. *)
let test_token_counter_matches_tokenize () =
  Slif_obs.Registry.reset ();
  Slif_obs.Registry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Slif_obs.Registry.disable ();
      Slif_obs.Registry.reset ())
    (fun () ->
      List.iter
        (fun (spec : Specs.Registry.spec) ->
          let before = Slif_obs.Counter.get "parse.tokens" in
          ignore (Parser.parse spec.source);
          Alcotest.(check int) spec.spec_name
            (List.length (Lexer.tokenize spec.source))
            (Slif_obs.Counter.get "parse.tokens" - before))
        Specs.Registry.all)

(* Parsing pulls tokens one at a time and keeps no token list: on ether it
   allocates about 5 minor words per token, nearly all of it the AST.  A
   front end that materialises its tokens (about 61 words per token) fails. *)
let test_parse_minor_words_per_token () =
  let src = (Specs.Registry.find_exn "ether").source in
  let tokens = float_of_int (List.length (Lexer.tokenize src)) in
  ignore (Parser.parse src);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Parser.parse src));
  let per_token = (Gc.minor_words () -. w0) /. tokens in
  if per_token > 12.0 then Alcotest.failf "%.2f minor words per token (bound 12)" per_token

(* The first error in source order is the one reported, whether the lexer
   or the parser finds it. *)
let test_first_error_in_source_order_wins () =
  let error_at src =
    match Parser.parse src with
    | exception Loc.Error (loc, msg) -> Loc.to_string loc ^ ": " ^ msg
    | _ -> Alcotest.failf "no error in %S" src
  in
  Alcotest.(check string) "parse error before an illegal character"
    "2:24: expected identifier (found ))"
    (error_at "entity e is\n  port (a : in integer;);\nend e;\n$");
  Alcotest.(check string) "illegal character before a parse error"
    "1:8: illegal character '$'"
    (error_at "entity $ is\n  port (a : in integer;);\nend e;\n")

(* A range with its bounds swapped is empty; both range sites (a
   subtype and a [type ... is range] definition) reject it at the lower
   bound. *)
let test_empty_range_rejected () =
  let error_at src =
    match Parser.parse src with
    | exception Loc.Error (loc, msg) -> Loc.to_string loc ^ ": " ^ msg
    | _ -> Alcotest.failf "no error in %S" src
  in
  Alcotest.(check string) "subtype range"
    "2:30: empty integer range 1023 to 0"
    (error_at "entity e is\n  port (a : in integer range 1023 to 0);\nend e;\n");
  Alcotest.(check string) "type definition"
    "3:19: empty integer range 9 to -1"
    (error_at
       ("entity e is end e;\narchitecture a of e is\n"
       ^ "  type t is range 9 to -1;\nbegin\nend a;\n"));
  match
    Parser.parse
      ("entity e is\n  port (a : in integer range 5 to 5);\nend e;\n"
      ^ "architecture b of e is\nbegin\nend b;\n")
  with
  | _ -> ()
  | exception Loc.Error (_, msg) -> Alcotest.failf "one-value range rejected: %s" msg

let suite =
  [
    Alcotest.test_case "arithmetic precedence" `Quick test_precedence_arith;
    Alcotest.test_case "boolean precedence" `Quick test_precedence_bool;
    Alcotest.test_case "unary operators" `Quick test_unary;
    Alcotest.test_case "mod and rem" `Quick test_mod_rem;
    Alcotest.test_case "index vs call" `Quick test_index_vs_call;
    Alcotest.test_case "attributes" `Quick test_attr;
    Alcotest.test_case "if/elsif/else" `Quick test_if_elsif_else;
    Alcotest.test_case "case choices" `Quick test_case_with_choices;
    Alcotest.test_case "for normalizes downto" `Quick test_for_normalizes_downto;
    Alcotest.test_case "while and forever loops" `Quick test_while_and_forever;
    Alcotest.test_case "par block" `Quick test_par_block;
    Alcotest.test_case "send/receive" `Quick test_send_receive;
    Alcotest.test_case "wait forms" `Quick test_wait_forms;
    Alcotest.test_case "signal vs variable assignment" `Quick test_signal_vs_variable_assign;
    Alcotest.test_case "entity ports" `Quick test_entity_ports;
    Alcotest.test_case "subprograms and declarations" `Quick test_subprograms_and_decls;
    Alcotest.test_case "all specs round-trip via printer" `Quick test_roundtrip_through_pretty;
    Alcotest.test_case "parse error carries location" `Quick test_error_has_location;
    Alcotest.test_case "trailing input rejected" `Quick test_trailing_garbage_rejected;
    Alcotest.test_case "parse.tokens counts every token" `Quick
      test_token_counter_matches_tokenize;
    Alcotest.test_case "parse allocates little per token" `Quick
      test_parse_minor_words_per_token;
    Alcotest.test_case "first error in source order wins" `Quick
      test_first_error_in_source_order_wins;
    Alcotest.test_case "empty integer range rejected" `Quick test_empty_range_rejected;
  ]
