type t = { dynamic : float array; static : int array }

let dyn t op = t.dynamic.(Optype.index op)
let stat t op = t.static.(Optype.index op)

let add_dyn t op x = t.dynamic.(Optype.index op) <- t.dynamic.(Optype.index op) +. x
let add_stat t op n = t.static.(Optype.index op) <- t.static.(Optype.index op) + n

(* Count the pure-computation ops of one expression occurrence (loads and
   calls are accounted from access events instead). *)
let rec expr_ops f e =
  match e with
  | Vhdl.Ast.Int_lit _ | Vhdl.Ast.Bool_lit _ | Vhdl.Ast.Name _ | Vhdl.Ast.Attr _ -> ()
  | Vhdl.Ast.Index (_, i) ->
      (* Address computation for the element select. *)
      f Optype.Add;
      expr_ops f i
  | Vhdl.Ast.Call (_, args) -> List.iter (expr_ops f) args
  | Vhdl.Ast.Binop (op, a, b) ->
      f (Optype.of_binop op);
      expr_ops f a;
      expr_ops f b
  | Vhdl.Ast.Unop (op, a) ->
      f (Optype.of_unop op);
      expr_ops f a

(* Statement-level overheads; [dyn] takes each dynamic term. *)
let stmt_ops dyn t (mult : Flow.Count.mult) s =
  let both op ~d ~s:n =
    dyn op d;
    add_stat t op n
  in
  match s with
  | Vhdl.Ast.Assign _ | Vhdl.Ast.Signal_assign _ -> both Optype.Move ~d:mult.avg ~s:1
  | Vhdl.Ast.If (arms, _) ->
      let n = List.length arms in
      both Optype.Branch ~d:(mult.avg *. float_of_int (n + 1) /. 2.0) ~s:n
  | Vhdl.Ast.Case (_, alts) -> both Optype.Branch ~d:mult.avg ~s:(List.length alts)
  | Vhdl.Ast.For (_, lo, hi, _) ->
      let trips = float_of_int (hi - lo + 1) in
      both Optype.Add ~d:(mult.avg *. trips) ~s:1;
      both Optype.Cmp ~d:(mult.avg *. trips) ~s:1;
      both Optype.Branch ~d:(mult.avg *. trips) ~s:1
  | Vhdl.Ast.While _ ->
      (* The condition's own ops arrive trip-scaled as expression terms; only
         the back-edge is approximated with the default trip count. *)
      both Optype.Branch ~d:(mult.avg *. Flow.Profile.default_while_trips) ~s:1
  | Vhdl.Ast.Loop_forever _ -> both Optype.Branch ~d:mult.avg ~s:1
  | Vhdl.Ast.Wait_for _ | Vhdl.Ast.Wait_until _ | Vhdl.Ast.Wait_on _ ->
      both Optype.Io_op ~d:mult.avg ~s:1
  | Vhdl.Ast.Return _ -> both Optype.Move ~d:mult.avg ~s:1
  | Vhdl.Ast.Pcall _ | Vhdl.Ast.Par _ | Vhdl.Ast.Send _ | Vhdl.Ast.Receive _
  | Vhdl.Ast.Null_stmt | Vhdl.Ast.Exit_loop ->
      ()

(* Dynamic terms held back in walk order.  One walk feeds three kinds of
   terms, and each op's float sum adds them as expression terms, then
   statement terms, then access terms; a later kind waits here until the
   earlier ones are in. *)
type pending = { mutable ops : int array; mutable xs : float array; mutable n : int }

let pending () = { ops = Array.make 64 0; xs = Array.make 64 0.0; n = 0 }

let defer p op x =
  if p.n = Array.length p.ops then begin
    p.ops <- Array.append p.ops (Array.make p.n 0);
    p.xs <- Array.append p.xs (Array.make p.n 0.0)
  end;
  p.ops.(p.n) <- Optype.index op;
  p.xs.(p.n) <- x;
  p.n <- p.n + 1

let replay t p =
  for i = 0 to p.n - 1 do
    t.dynamic.(p.ops.(i)) <- t.dynamic.(p.ops.(i)) +. p.xs.(i)
  done

let of_behavior ~profile ~is_local ~is_sub ~name body =
  let t =
    { dynamic = Array.make Optype.count 0.0; static = Array.make Optype.count 0 }
  in
  let stmt_terms = pending () and access_terms = pending () in
  let stmt_dyn = defer stmt_terms in
  Flow.Count.iter ~profile ~behavior:name body
    ~on_expr:(fun (mult : Flow.Count.mult) e ->
      (* Pure computation from expressions, with exact evaluation multipliers. *)
      expr_ops
        (fun op ->
          add_dyn t op mult.avg;
          add_stat t op 1)
        e)
    ~on_stmt:(fun mult s -> stmt_ops stmt_dyn t mult s)
    ~on_access:(fun (e : Flow.Count.event) ->
      (* Storage and linkage traffic.  Local accesses are internal
         computation; non-local ones are channels, whose time the estimator
         adds, so they contribute to static size only. *)
      match e.access with
      | Flow.Count.Read n when is_sub n -> add_stat t Optype.Call_op 1
      | Flow.Count.Read n ->
          add_stat t Optype.Load 1;
          if is_local n then defer access_terms Optype.Load e.mult.avg
      | Flow.Count.Write n ->
          add_stat t Optype.Store 1;
          if is_local n then defer access_terms Optype.Store e.mult.avg
      | Flow.Count.Call _ -> add_stat t Optype.Call_op 1
      | Flow.Count.Message_out _ | Flow.Count.Message_in _ -> add_stat t Optype.Io_op 1);
  replay t stmt_terms;
  replay t access_terms;
  t

let total_dynamic t = Array.fold_left ( +. ) 0.0 t.dynamic
let total_static t = Array.fold_left ( + ) 0 t.static
