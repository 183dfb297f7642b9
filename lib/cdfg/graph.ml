module Ast = Vhdl.Ast

type node_kind =
  | Op of Tech.Optype.t
  | Const of int
  | Read of string
  | Write of string
  | Branch
  | Join
  | Loop_head
  | Call_site of string
  | Io of string

type node = { id : int; kind : node_kind; behavior : string }

type edge_kind = Data | Control

type edge = { e_src : int; e_dst : int; e_kind : edge_kind }

type t = { nodes : node array; edges : edge array }

type builder = {
  mutable nodes : node list;     (* reversed *)
  mutable edges : edge list;
  mutable next : int;
  mutable behavior : string;
}

let add_node b kind =
  let id = b.next in
  b.next <- id + 1;
  b.nodes <- { id; kind; behavior = b.behavior } :: b.nodes;
  id

let add_edge b e_src e_dst e_kind = b.edges <- { e_src; e_dst; e_kind } :: b.edges

(* Returns the node producing the expression's value. *)
let rec expr_node b e =
  match e with
  | Ast.Int_lit n -> add_node b (Const n)
  | Ast.Bool_lit v -> add_node b (Const (if v then 1 else 0))
  | Ast.Name n -> add_node b (Read n)
  | Ast.Attr (n, _) -> add_node b (Read n)
  | Ast.Index (n, i) ->
      (* Address computation feeding an indexed read. *)
      let addr = expr_node b i in
      let plus = add_node b (Op Tech.Optype.Add) in
      add_edge b addr plus Data;
      let rd = add_node b (Read n) in
      add_edge b plus rd Data;
      rd
  | Ast.Call (n, args) ->
      (* Operands are created before the call node so that node ids remain
         topological over data edges (Synthest relies on this). *)
      let arg_nodes = List.map (expr_node b) args in
      let call = add_node b (Call_site n) in
      List.iter (fun a -> add_edge b a call Data) arg_nodes;
      call
  | Ast.Binop (op, x, y) ->
      let nx = expr_node b x and ny = expr_node b y in
      let node = add_node b (Op (Tech.Optype.of_binop op)) in
      add_edge b nx node Data;
      add_edge b ny node Data;
      node
  | Ast.Unop (op, x) ->
      let nx = expr_node b x in
      let node = add_node b (Op (Tech.Optype.of_unop op)) in
      add_edge b nx node Data;
      node

let target_node b value = function
  | Ast.Tname n ->
      let w = add_node b (Write n) in
      add_edge b value w Data;
      w
  | Ast.Tindex (n, i) ->
      let addr = expr_node b i in
      let plus = add_node b (Op Tech.Optype.Add) in
      add_edge b addr plus Data;
      let w = add_node b (Write n) in
      add_edge b plus w Data;
      add_edge b value w Data;
      w

(* Statements are chained by control edges; each returns its exit node. *)
let rec stmt_node b prev s =
  let seq node =
    add_edge b prev node Control;
    node
  in
  match s with
  | Ast.Assign (t, e) | Ast.Signal_assign (t, e) ->
      let v = expr_node b e in
      seq (target_node b v t)
  | Ast.If (arms, els) ->
      let join = add_node b Join in
      let rec chain prev = function
        | [] ->
            let last = stmts_node b prev els in
            add_edge b last join Control
        | (cond, body) :: rest ->
            let c = expr_node b cond in
            let br = add_node b Branch in
            add_edge b c br Data;
            add_edge b prev br Control;
            let last = stmts_node b br body in
            add_edge b last join Control;
            chain br rest
      in
      chain prev arms;
      join
  | Ast.Case (subject, alts) ->
      let c = expr_node b subject in
      let br = seq (add_node b Branch) in
      add_edge b c br Data;
      let join = add_node b Join in
      List.iter
        (fun (choices, body) ->
          List.iter
            (function
              | Ast.Ch_expr e ->
                  let v = expr_node b e in
                  let cmp = add_node b (Op Tech.Optype.Cmp) in
                  add_edge b v cmp Data;
                  add_edge b cmp br Data
              | Ast.Ch_others -> ())
            choices;
          let last = stmts_node b br body in
          add_edge b last join Control)
        alts;
      join
  | Ast.For (_, lo, hi, body) ->
      let head = seq (add_node b Loop_head) in
      let bound = add_node b (Const (hi - lo + 1)) in
      add_edge b bound head Data;
      let last = stmts_node b head body in
      add_edge b last head Control;
      head
  | Ast.While (cond, body) ->
      let head = seq (add_node b Loop_head) in
      let c = expr_node b cond in
      add_edge b c head Data;
      let last = stmts_node b head body in
      add_edge b last head Control;
      head
  | Ast.Loop_forever body ->
      let head = seq (add_node b Loop_head) in
      let last = stmts_node b head body in
      add_edge b last head Control;
      head
  | Ast.Pcall (n, args) ->
      let arg_nodes = List.map (expr_node b) args in
      let call = add_node b (Call_site n) in
      List.iter (fun a -> add_edge b a call Data) arg_nodes;
      seq call
  | Ast.Par calls ->
      let join = add_node b Join in
      List.iter
        (fun (n, args) ->
          let arg_nodes = List.map (expr_node b) args in
          let call = add_node b (Call_site n) in
          List.iter (fun a -> add_edge b a call Data) arg_nodes;
          add_edge b prev call Control;
          add_edge b call join Control)
        calls;
      join
  | Ast.Send (ch, e) ->
      let v = expr_node b e in
      let io = seq (add_node b (Io ch)) in
      add_edge b v io Data;
      io
  | Ast.Receive (ch, t) ->
      let io = seq (add_node b (Io ch)) in
      target_node b io t
  | Ast.Wait_for _ -> seq (add_node b (Io "time"))
  | Ast.Wait_until e ->
      let v = expr_node b e in
      let io = seq (add_node b (Io "event")) in
      add_edge b v io Data;
      io
  | Ast.Wait_on names -> seq (add_node b (Io (String.concat "," names)))
  | Ast.Return (Some e) ->
      let v = expr_node b e in
      let w = seq (add_node b (Write "return")) in
      add_edge b v w Data;
      w
  | Ast.Return None -> seq (add_node b (Write "return"))
  | Ast.Null_stmt | Ast.Exit_loop -> prev

and stmts_node b prev body = List.fold_left (stmt_node b) prev body

let of_design (design : Ast.design) =
  let b = { nodes = []; edges = []; next = 0; behavior = "" } in
  List.iter
    (fun (name, _decls, body) ->
      b.behavior <- name;
      let entry = add_node b Join in
      ignore (stmts_node b entry body))
    (Ast.behaviors design);
  {
    nodes = Array.of_list (List.rev b.nodes);
    edges = Array.of_list (List.rev b.edges);
  }

let node_count (t : t) = Array.length t.nodes
let edge_count (t : t) = Array.length t.edges
