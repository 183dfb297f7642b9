module Ast = Vhdl.Ast

let expected_statements ~profile sem ~behavior =
  let design = Vhdl.Sem.design sem in
  let bodies = Hashtbl.create 16 in
  List.iter (fun (name, _, body) -> Hashtbl.replace bodies name body) (Ast.behaviors design);
  let memo = Hashtbl.create 16 in
  let rec total name stack =
    if List.mem name stack then
      invalid_arg (Printf.sprintf "Workload.expected_statements: recursion through %s" name);
    match Hashtbl.find_opt memo name with
    | Some v -> v
    | None ->
        let body =
          match Hashtbl.find_opt bodies name with
          | Some b -> b
          | None ->
              invalid_arg
                (Printf.sprintf "Workload.expected_statements: unknown behavior %s" name)
        in
        (* One walk: own statements, loop- and probability-weighted, and
           how often each callee runs. *)
        let own = ref 0.0 and callees = Hashtbl.create 8 in
        let called callee (mult : Count.mult) =
          Hashtbl.replace callees callee
            (mult.avg +. Option.value (Hashtbl.find_opt callees callee) ~default:0.0)
        in
        Count.iter ~profile ~behavior:name body
          ~on_stmt:(fun mult _ -> own := !own +. mult.Count.avg)
          ~on_access:(fun (e : Count.event) ->
            match e.access with
            | Count.Call callee when Hashtbl.mem bodies callee -> called callee e.mult
            (* A zero-argument function call parsed as a name read. *)
            | Count.Read r when Hashtbl.mem bodies r -> called r e.mult
            | _ -> ());
        let v =
          Hashtbl.fold
            (fun callee freq acc -> acc +. (freq *. total callee (name :: stack)))
            callees !own
        in
        Hashtbl.replace memo name v;
        v
  in
  total behavior []
