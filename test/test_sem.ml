open Vhdl

let sem_of src = Sem.build (Parser.parse src)

let fixture =
  {|entity e is
  port ( pin : in integer range 0 to 255; pout : out bit );
end;
architecture a of e is
  type tbl is array (1 to 128) of integer range 0 to 255;
  shared variable g : integer range 0 to 15;
  shared variable arr : tbl;
  signal s : bit_vector(12);
  constant k : integer := 7;
  function f(x : in integer) return integer is
  begin
    return x + 1;
  end f;
  procedure p(a : in integer range 0 to 255; b : out integer range 0 to 255) is
    variable local : integer range 0 to 3;
    variable g : boolean;
  begin
    local := a mod 4;
    b := f(local) + k;
    g := true;
  end p;
begin
  main: process
    variable mine : integer;
  begin
    g := pin;
    p(g, mine);
    pout <= s(3);
    wait for 1 us;
  end process;
end;|}

let sem = lazy (sem_of fixture)

let test_global_lookup () =
  let env = Sem.global_env (Lazy.force sem) in
  (match Sem.lookup env "g" with
  | Some (Sem.Global_var _) -> ()
  | _ -> Alcotest.fail "g should be a global variable");
  (match Sem.lookup env "s" with
  | Some (Sem.Global_var _) -> ()
  | _ -> Alcotest.fail "s should resolve as a global (signal)");
  (match Sem.lookup env "pin" with
  | Some (Sem.Port (Ast.In, _)) -> ()
  | _ -> Alcotest.fail "pin should be an input port");
  (match Sem.lookup env "k" with
  | Some (Sem.Constant _) -> ()
  | _ -> Alcotest.fail "k should be a constant");
  match Sem.lookup env "f" with
  | Some (Sem.Subprogram _) -> ()
  | _ -> Alcotest.fail "f should be a subprogram"

let test_local_shadows_global () =
  let env = Sem.env_of_behavior (Lazy.force sem) "p" in
  (match Sem.lookup env "g" with
  | Some (Sem.Local_var Ast.Boolean) -> ()
  | _ -> Alcotest.fail "p's local g shadows the global");
  match Sem.lookup env "a" with
  | Some (Sem.Param (Ast.In, _)) -> ()
  | _ -> Alcotest.fail "a is a parameter"

let test_process_env () =
  let env = Sem.env_of_behavior (Lazy.force sem) "main" in
  (match Sem.lookup env "mine" with
  | Some (Sem.Local_var _) -> ()
  | _ -> Alcotest.fail "mine is main's local");
  match Sem.lookup env "g" with
  | Some (Sem.Global_var _) -> ()
  | _ -> Alcotest.fail "main sees the global g"

let test_unknown_name () =
  let env = Sem.global_env (Lazy.force sem) in
  Alcotest.(check bool) "nope is unbound" true (Sem.lookup env "nope" = None)

(* A scalar moves its encoding width per access. *)
let test_scalar_bits () =
  let t = Lazy.force sem in
  Alcotest.(check int) "integer is 32" 32 (Sem.transfer_bits t Ast.Integer);
  Alcotest.(check int) "bit is 1" 1 (Sem.transfer_bits t Ast.Bit);
  Alcotest.(check int) "boolean is 1" 1 (Sem.transfer_bits t Ast.Boolean);
  Alcotest.(check int) "bit_vector(12)" 12 (Sem.transfer_bits t (Ast.Bit_vector 12));
  Alcotest.(check int) "0..255 is 8" 8 (Sem.transfer_bits t (Ast.Int_range (0, 255)))

let test_transfer_bits_array () =
  (* The paper's Figure 3 example: 128-entry array of bytes accesses move
     8 data + 7 address = 15 bits. *)
  let t = Lazy.force sem in
  Alcotest.(check int) "tbl access is 15 bits" 15 (Sem.transfer_bits t (Ast.Named "tbl"));
  Alcotest.(check int) "scalar transfer = scalar bits" 8
    (Sem.transfer_bits t (Ast.Int_range (0, 255)))

let test_storage_bits () =
  let t = Lazy.force sem in
  Alcotest.(check int) "tbl stores 128x8" 1024 (Sem.storage_bits t (Ast.Named "tbl"));
  Alcotest.(check int) "scalar storage" 4 (Sem.storage_bits t (Ast.Int_range (0, 15)))

let test_unknown_named_type () =
  let t = Lazy.force sem in
  match Sem.transfer_bits t (Ast.Named "nonexistent") with
  | exception Sem.Unbound "nonexistent" -> ()
  | _ -> Alcotest.fail "expected Unbound"

let test_is_function_name () =
  let t = Lazy.force sem in
  Alcotest.(check bool) "f" true (Sem.is_function_name t "f");
  Alcotest.(check bool) "p" true (Sem.is_function_name t "p");
  Alcotest.(check bool) "g" false (Sem.is_function_name t "g")

let test_params_bits () =
  let t = Lazy.force sem in
  match Sem.lookup (Sem.global_env t) "p" with
  | Some (Sem.Subprogram sub) ->
      (* two byte-range params: 8 + 8 *)
      Alcotest.(check int) "p params" 16 (Sem.params_bits t sub)
  | _ -> Alcotest.fail "p not found"

let test_behavior_names () =
  let t = Lazy.force sem in
  Alcotest.(check (list string))
    "order" [ "main"; "f"; "p" ]
    (List.map (fun (name, _, _) -> name) (Ast.behaviors (Sem.design t)))

let suite =
  [
    Alcotest.test_case "global lookups" `Quick test_global_lookup;
    Alcotest.test_case "locals shadow globals" `Quick test_local_shadows_global;
    Alcotest.test_case "process scope" `Quick test_process_env;
    Alcotest.test_case "unknown names" `Quick test_unknown_name;
    Alcotest.test_case "scalar bit widths" `Quick test_scalar_bits;
    Alcotest.test_case "array transfer bits (paper example)" `Quick test_transfer_bits_array;
    Alcotest.test_case "storage bits" `Quick test_storage_bits;
    Alcotest.test_case "unknown named type" `Quick test_unknown_named_type;
    Alcotest.test_case "is_function_name" `Quick test_is_function_name;
    Alcotest.test_case "params_bits" `Quick test_params_bits;
    Alcotest.test_case "behavior name order" `Quick test_behavior_names;
  ]
