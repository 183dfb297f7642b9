module Ast = Vhdl.Ast
module Sem = Vhdl.Sem

type value = Vint of int | Vbool of bool | Varr of int array

type limits = { max_steps : int; max_while_iters : int }

let default_limits = { max_steps = 200_000; max_while_iters = 10_000 }

exception Limit_exceeded of string
exception Runtime_error of string

exception Return_value of value option
exception Exit_loop_exn

let error fmt = Printf.ksprintf (fun msg -> raise (Runtime_error msg)) fmt

(* Per-site observation counters. *)
type branch_stat = { mutable visits : int; arms : (int, int) Hashtbl.t; n_arms : int }
type while_stat = { mutable entries : int; mutable iters : int }

type recorder = {
  branch_stats : (string * int, branch_stat) Hashtbl.t;  (* behavior, site *)
  while_stats : (string * int, while_stat) Hashtbl.t;
}

type t = {
  sem : Sem.t;
  globals : (string, value ref) Hashtbl.t;
  inputs : string -> int;
  outputs : (string, int) Hashtbl.t;
  queues : (string, int Queue.t) Hashtbl.t;
  limits : limits;
  mutable step_count : int;
  recorder : recorder;
  sites : (string, Sites.t) Hashtbl.t;
}

(* --- Values and defaults -------------------------------------------------- *)

let rec default_value sem ty =
  match Sem.resolve sem ty with
  | Ast.Integer | Ast.Natural | Ast.Bit | Ast.Bit_vector _ -> Vint 0
  | Ast.Boolean -> Vbool false
  | Ast.Int_range (lo, hi) -> Vint (if lo <= 0 && 0 <= hi then 0 else lo)
  | Ast.Array_of { length; elem; _ } ->
      let e = match default_value sem elem with Vint v -> v | Vbool _ -> 0 | Varr _ -> 0 in
      Varr (Array.make length e)
  | Ast.Named _ -> assert false

let as_int = function
  | Vint v -> v
  | Vbool b -> if b then 1 else 0
  | Varr _ -> error "array used as a scalar"

let as_bool = function
  | Vbool b -> b
  | Vint v -> v <> 0
  | Varr _ -> error "array used as a condition"

(* Arrays index from their declared low bound. *)
let array_lo sem ty =
  match Sem.resolve sem ty with Ast.Array_of { lo; _ } -> lo | _ -> 0

(* --- Machine construction -------------------------------------------------- *)

let eval_const_expr e =
  (* Initializers in the subset are literals or simple arithmetic. *)
  let rec go = function
    | Ast.Int_lit n -> n
    | Ast.Bool_lit b -> if b then 1 else 0
    | Ast.Unop (Ast.Neg, a) -> -go a
    | Ast.Binop (Ast.Add, a, b) -> go a + go b
    | Ast.Binop (Ast.Sub, a, b) -> go a - go b
    | Ast.Binop (Ast.Mul, a, b) -> go a * go b
    | _ -> 0
  in
  go e

let create ?(limits = default_limits) ~inputs sem =
  let design = Sem.design sem in
  let globals = Hashtbl.create 64 in
  List.iter
    (fun d ->
      match d with
      | Ast.Var_decl { v_name; v_type; v_init; _ } ->
          let base = default_value sem v_type in
          let v =
            match (v_init, base) with
            | Some e, Vint _ -> Vint (eval_const_expr e)
            | Some e, Vbool _ -> Vbool (eval_const_expr e <> 0)
            | _ -> base
          in
          Hashtbl.replace globals v_name (ref v)
      | Ast.Sig_decl { s_name; s_type } ->
          Hashtbl.replace globals s_name (ref (default_value sem s_type))
      | Ast.Const_decl _ | Ast.Type_decl _ -> ())
    design.Ast.arch_decls;
  let sites = Hashtbl.create 16 in
  List.iter
    (fun (name, _, body) -> Hashtbl.replace sites name (Sites.of_body body))
    (Ast.behaviors design);
  {
    sem;
    globals;
    inputs;
    outputs = Hashtbl.create 16;
    queues = Hashtbl.create 8;
    limits;
    step_count = 0;
    recorder = { branch_stats = Hashtbl.create 32; while_stats = Hashtbl.create 8 };
    sites;
  }


(* --- Recording ------------------------------------------------------------- *)

let record_branch t ~behavior ~site ~arm ~n_arms =
  let key = (behavior, site) in
  let stat =
    match Hashtbl.find_opt t.recorder.branch_stats key with
    | Some s -> s
    | None ->
        let s = { visits = 0; arms = Hashtbl.create 4; n_arms } in
        Hashtbl.replace t.recorder.branch_stats key s;
        s
  in
  stat.visits <- stat.visits + 1;
  Hashtbl.replace stat.arms arm (1 + Option.value (Hashtbl.find_opt stat.arms arm) ~default:0)

let record_while_entry t ~behavior ~site ~iters =
  let key = (behavior, site) in
  let stat =
    match Hashtbl.find_opt t.recorder.while_stats key with
    | Some s -> s
    | None ->
        let s = { entries = 0; iters = 0 } in
        Hashtbl.replace t.recorder.while_stats key s;
        s
  in
  stat.entries <- stat.entries + 1;
  stat.iters <- stat.iters + iters

(* --- Execution ------------------------------------------------------------- *)

type frame = {
  behavior : string;
  env : Sem.env;
  locals : (string, value ref) Hashtbl.t;
  site_map : Sites.t;
}

let tick t behavior =
  t.step_count <- t.step_count + 1;
  if t.step_count > t.limits.max_steps then raise (Limit_exceeded behavior)

let find_subprogram t name =
  match Sem.lookup (Sem.global_env t.sem) name with
  | Some (Sem.Subprogram sub) -> Some sub
  | _ -> None

let queue_for t ch =
  match Hashtbl.find_opt t.queues ch with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues ch q;
      q

let rec eval t frame e =
  match e with
  | Ast.Int_lit n -> Vint n
  | Ast.Bool_lit b -> Vbool b
  | Ast.Name n -> (
      (* A bare name can be a zero-argument function call. *)
      match Hashtbl.mem frame.locals n with
      | true -> read_name t frame n
      | false -> (
          match find_subprogram t n with
          | Some sub -> call_subprogram t frame sub []
          | None -> read_name t frame n))
  | Ast.Attr (n, attr) -> (
      match (read_name_opt t frame n, attr) with
      | Some (Varr a), "length" -> Vint (Array.length a)
      | _ -> Vint 0)
  | Ast.Index (n, ix) -> (
      match find_subprogram t n with
      | Some sub -> call_subprogram t frame sub [ ix ]
      | None -> (
          let i = as_int (eval t frame ix) in
          match read_name t frame n with
          | Varr a ->
              let ty = type_of_name t frame n in
              let lo = array_lo t.sem ty in
              if i - lo < 0 || i - lo >= Array.length a then
                error "%s(%d): index out of bounds in %s" n i frame.behavior
              else Vint a.(i - lo)
          | _ -> error "%s is not an array" n))
  | Ast.Call (n, args) -> (
      match find_subprogram t n with
      | Some sub -> call_subprogram t frame sub args
      | None -> error "unknown function %s" n)
  | Ast.Binop (op, a, b) -> eval_binop t frame op a b
  | Ast.Unop (op, a) -> (
      match op with
      | Ast.Neg -> Vint (-as_int (eval t frame a))
      | Ast.Abs -> Vint (abs (as_int (eval t frame a)))
      | Ast.Not -> Vbool (not (as_bool (eval t frame a))))

and eval_binop t frame op a b =
  match op with
  | Ast.And -> Vbool (as_bool (eval t frame a) && as_bool (eval t frame b))
  | Ast.Or -> Vbool (as_bool (eval t frame a) || as_bool (eval t frame b))
  | Ast.Xor -> Vbool (as_bool (eval t frame a) <> as_bool (eval t frame b))
  | _ -> (
      let x = as_int (eval t frame a) and y = as_int (eval t frame b) in
      match op with
      | Ast.Add -> Vint (x + y)
      | Ast.Sub -> Vint (x - y)
      | Ast.Mul -> Vint (x * y)
      | Ast.Div -> if y = 0 then error "division by zero in %s" frame.behavior else Vint (x / y)
      | Ast.Mod -> if y = 0 then error "mod by zero in %s" frame.behavior else Vint (((x mod y) + y) mod y)
      | Ast.Rem -> if y = 0 then error "rem by zero in %s" frame.behavior else Vint (x mod y)
      | Ast.Eq -> Vbool (x = y)
      | Ast.Neq -> Vbool (x <> y)
      | Ast.Lt -> Vbool (x < y)
      | Ast.Le -> Vbool (x <= y)
      | Ast.Gt -> Vbool (x > y)
      | Ast.Ge -> Vbool (x >= y)
      | Ast.Concat -> Vint ((x * 2) + y)
      | Ast.And | Ast.Or | Ast.Xor -> assert false)

and type_of_name _t frame n =
  match Sem.lookup frame.env n with
  | Some (Sem.Local_var ty | Sem.Global_var ty | Sem.Port (_, ty) | Sem.Param (_, ty)
         | Sem.Constant (ty, _)) ->
      ty
  | _ -> Ast.Integer

and read_name_opt t frame n =
  match Hashtbl.find_opt frame.locals n with
  | Some r -> Some !r
  | None -> (
      match Sem.lookup frame.env n with
      | Some (Sem.Constant (_, e)) -> Some (Vint (eval_const_expr e))
      | Some (Sem.Port _) -> Some (Vint (t.inputs n))
      | Some (Sem.Global_var _) -> (
          match Hashtbl.find_opt t.globals n with Some r -> Some !r | None -> None)
      | Some (Sem.Local_var _ | Sem.Param _) ->
          (* Declared but never initialized in this frame: default. *)
          Some (default_value t.sem (type_of_name t frame n))
      | Some (Sem.Subprogram _) | None -> None)

and read_name t frame n =
  match read_name_opt t frame n with
  | Some v -> v
  | None -> error "unbound name %s in %s" n frame.behavior

and write_name t frame n v =
  match Hashtbl.find_opt frame.locals n with
  | Some r -> r := v
  | None -> (
      match Sem.lookup frame.env n with
      | Some (Sem.Port _) -> Hashtbl.replace t.outputs n (as_int v)
      | Some (Sem.Global_var _) -> (
          match Hashtbl.find_opt t.globals n with
          | Some r -> r := v
          | None -> Hashtbl.replace t.globals n (ref v))
      | Some (Sem.Local_var _ | Sem.Param _) -> Hashtbl.replace frame.locals n (ref v)
      | _ -> error "cannot assign to %s in %s" n frame.behavior)

and write_target t frame target v =
  match target with
  | Ast.Tname n -> write_name t frame n v
  | Ast.Tindex (n, ix) -> (
      let i = as_int (eval t frame ix) in
      match read_name t frame n with
      | Varr a ->
          let lo = array_lo t.sem (type_of_name t frame n) in
          if i - lo < 0 || i - lo >= Array.length a then
            error "%s(%d): index out of bounds in %s" n i frame.behavior
          else a.(i - lo) <- as_int v
      | _ -> error "%s is not an array" n)

and call_subprogram t frame sub args =
  let name = sub.Ast.sub_name in
  let locals = Hashtbl.create 8 in
  if List.length args <> List.length sub.Ast.sub_params then
    error "%s expects %d arguments" name (List.length sub.Ast.sub_params);
  (* Copy-in. *)
  List.iter2
    (fun (p : Ast.param) arg ->
      let v =
        match p.par_mode with
        | Ast.In | Ast.Inout -> eval t frame arg
        | Ast.Out -> default_value t.sem p.par_type
      in
      Hashtbl.replace locals p.par_name (ref v))
    sub.Ast.sub_params args;
  List.iter
    (fun d ->
      match d with
      | Ast.Var_decl { v_name; v_type; v_init; _ } ->
          let v =
            match v_init with
            | Some e -> Vint (eval_const_expr e)
            | None -> default_value t.sem v_type
          in
          Hashtbl.replace locals v_name (ref v)
      | _ -> ())
    sub.Ast.sub_decls;
  let callee_frame =
    {
      behavior = name;
      env = Sem.env_of_behavior t.sem name;
      locals;
      site_map =
        (match Hashtbl.find_opt t.sites name with
        | Some s -> s
        | None -> Sites.of_body sub.Ast.sub_body);
    }
  in
  let result =
    try
      exec_stmts t callee_frame [] sub.Ast.sub_body;
      None
    with Return_value v -> v
  in
  (* Copy-out for out/inout parameters bound to lvalue arguments. *)
  List.iter2
    (fun (p : Ast.param) arg ->
      match p.par_mode with
      | Ast.Out | Ast.Inout -> (
          let v = !(Hashtbl.find locals p.par_name) in
          match arg with
          | Ast.Name n -> write_name t frame n v
          | Ast.Index (n, ix) -> write_target t frame (Ast.Tindex (n, ix)) v
          | _ -> ())
      | Ast.In -> ())
    sub.Ast.sub_params args;
  match result with Some v -> v | None -> Vint 0

and exec_stmts t frame path body =
  List.iteri (fun i s -> exec_stmt t frame (i :: path) s) body

and exec_stmt t frame path s =
  tick t frame.behavior;
  match s with
  | Ast.Assign (target, e) | Ast.Signal_assign (target, e) ->
      write_target t frame target (eval t frame e)
  | Ast.If (arms, els) ->
      let n_arms = List.length arms + 1 in
      let site = Sites.branch_site frame.site_map path in
      let rec try_arms k = function
        | [] ->
            record t frame site ~arm:(List.length arms) ~n_arms;
            exec_stmts t frame (List.length arms :: path) els
        | (cond, body) :: rest ->
            if as_bool (eval t frame cond) then begin
              record t frame site ~arm:k ~n_arms;
              exec_stmts t frame (k :: path) body
            end
            else try_arms (k + 1) rest
      in
      try_arms 0 arms
  | Ast.Case (subject, alts) ->
      let n_arms = List.length alts in
      let site = Sites.branch_site frame.site_map path in
      let v = as_int (eval t frame subject) in
      let matches choices =
        List.exists
          (function
            | Ast.Ch_others -> true
            | Ast.Ch_expr e -> as_int (eval t frame e) = v)
          choices
      in
      let rec try_alts k = function
        | [] -> ()
        | (choices, body) :: rest ->
            if matches choices then begin
              record t frame site ~arm:k ~n_arms;
              exec_stmts t frame (k :: path) body
            end
            else try_alts (k + 1) rest
      in
      try_alts 0 alts
  | Ast.For (v, lo, hi, body) ->
      let saved = Hashtbl.find_opt frame.locals v in
      (try
         for i = lo to hi do
           Hashtbl.replace frame.locals v (ref (Vint i));
           exec_stmts t frame (0 :: path) body
         done
       with Exit_loop_exn -> ());
      (match saved with
      | Some r -> Hashtbl.replace frame.locals v r
      | None -> Hashtbl.remove frame.locals v)
  | Ast.While (cond, body) ->
      let site = Sites.while_site frame.site_map path in
      let iters = ref 0 in
      (try
         while as_bool (eval t frame cond) do
           incr iters;
           if !iters > t.limits.max_while_iters then raise (Limit_exceeded frame.behavior);
           exec_stmts t frame (0 :: path) body
         done
       with Exit_loop_exn -> ());
      (match site with
      | Some site -> record_while_entry t ~behavior:frame.behavior ~site ~iters:!iters
      | None -> ())
  | Ast.Loop_forever body -> (
      (* One start-to-finish pass, consistent with the static analysis. *)
      try exec_stmts t frame (0 :: path) body with Exit_loop_exn -> ())
  | Ast.Pcall (n, args) -> (
      match find_subprogram t n with
      | Some sub -> ignore (call_subprogram t frame sub args)
      | None -> error "unknown procedure %s" n)
  | Ast.Par calls ->
      List.iter
        (fun (n, args) ->
          match find_subprogram t n with
          | Some sub -> ignore (call_subprogram t frame sub args)
          | None -> error "unknown procedure %s" n)
        calls
  | Ast.Send (ch, e) -> Queue.push (as_int (eval t frame e)) (queue_for t ch)
  | Ast.Receive (ch, target) ->
      let q = queue_for t ch in
      let v = if Queue.is_empty q then 0 else Queue.pop q in
      write_target t frame target (Vint v)
  | Ast.Wait_for _ | Ast.Wait_on _ -> ()
  | Ast.Wait_until e -> ignore (eval t frame e)
  | Ast.Return e -> raise (Return_value (Option.map (eval t frame) e))
  | Ast.Null_stmt -> ()
  | Ast.Exit_loop -> raise Exit_loop_exn

and record t frame site ~arm ~n_arms =
  match site with
  | Some site -> record_branch t ~behavior:frame.behavior ~site ~arm ~n_arms
  | None -> ()

(* --- Entry points ------------------------------------------------------------ *)

let run_process t name =
  (* The step budget is per pass. *)
  t.step_count <- 0;
  let design = Sem.design t.sem in
  let proc =
    match List.find_opt (fun p -> p.Ast.proc_name = name) design.Ast.processes with
    | Some p -> p
    | None -> raise Not_found
  in
  let locals = Hashtbl.create 8 in
  List.iter
    (fun d ->
      match d with
      | Ast.Var_decl { v_name; v_type; v_init; _ } ->
          let v =
            match v_init with
            | Some e -> Vint (eval_const_expr e)
            | None -> default_value t.sem v_type
          in
          Hashtbl.replace locals v_name (ref v)
      | _ -> ())
    proc.Ast.proc_decls;
  let frame =
    {
      behavior = name;
      env = Sem.env_of_behavior t.sem name;
      locals;
      site_map = Hashtbl.find t.sites name;
    }
  in
  try exec_stmts t frame [] proc.Ast.proc_body with Return_value _ -> ()

let run_all_processes t =
  let design = Sem.design t.sem in
  List.iter (fun (p : Ast.process) -> run_process t p.Ast.proc_name) design.Ast.processes

let port_output t name = Hashtbl.find_opt t.outputs name

let read_global t name = Option.map ( ! ) (Hashtbl.find_opt t.globals name)

let profile t =
  let p = ref Profile.empty in
  Hashtbl.iter
    (fun (behavior, site) (stat : branch_stat) ->
      if stat.visits > 0 then
        for arm = 0 to stat.n_arms - 1 do
          let count = Option.value (Hashtbl.find_opt stat.arms arm) ~default:0 in
          p :=
            Profile.set_branch !p ~behavior ~site ~arm
              (float_of_int count /. float_of_int stat.visits)
        done)
    t.recorder.branch_stats;
  Hashtbl.iter
    (fun (behavior, site) (stat : while_stat) ->
      if stat.entries > 0 then
        p :=
          Profile.set_while !p ~behavior ~site
            ~trips:(float_of_int stat.iters /. float_of_int stat.entries))
    t.recorder.while_stats;
  !p

let steps t = t.step_count
