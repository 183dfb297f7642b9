open Vhdl.Ast

type mult = { avg : float; mn : float; mx : float }

let mult_one = { avg = 1.0; mn = 1.0; mx = 1.0 }

let mult_scale a b = { avg = a.avg *. b.avg; mn = a.mn *. b.mn; mx = a.mx *. b.mx }

type access =
  | Read of string
  | Write of string
  | Call of string
  | Message_out of string
  | Message_in of string

type event = { access : access; mult : mult; par_group : int option; seq : int }

type walk_state = {
  profile : Profile.t;
  behavior : string;
  mutable branch_site : int;
  mutable while_site : int;
  mutable seq : int;
  mutable par_counter : int;
  mutable loop_vars : string list;
}

let fresh_branch_site st =
  let s = st.branch_site in
  st.branch_site <- s + 1;
  s

let fresh_while_site st =
  let s = st.while_site in
  st.while_site <- s + 1;
  s

let next_seq st =
  let s = st.seq in
  st.seq <- s + 1;
  s

(* The one walker behind [iter] and [events].  [on_stmt] sees
   every statement with its multiplier; [on_access] sees every access
   event; [on_expr] every source-level expression occurrence. *)
let walk st ~on_stmt ~on_access ~on_expr body =
  let emit access mult par_group seq = on_access { access; mult; par_group; seq } in
  let rec expr_reads mult par seq e =
    on_expr mult e;
    expr_reads_inner mult par seq e
  and expr_reads_inner mult par seq e =
    match e with
    | Int_lit _ | Bool_lit _ | Attr _ -> ()
    | Name n -> if not (List.mem n st.loop_vars) then emit (Read n) mult par seq
    | Index (n, i) ->
        if not (List.mem n st.loop_vars) then emit (Read n) mult par seq;
        expr_reads_inner mult par seq i
    | Call (n, args) ->
        emit (Call n) mult par seq;
        List.iter (expr_reads_inner mult par seq) args
    | Binop (_, a, b) ->
        expr_reads_inner mult par seq a;
        expr_reads_inner mult par seq b
    | Unop (_, a) -> expr_reads_inner mult par seq a
  in
  let target_accesses mult par seq = function
    | Tname n -> emit (Write n) mult par seq
    | Tindex (n, i) ->
        emit (Write n) mult par seq;
        expr_reads mult par seq i
  in
  let rec stmt mult s =
    on_stmt mult s;
    let seq = next_seq st in
    match s with
    | Assign (t, e) | Signal_assign (t, e) ->
        expr_reads mult None seq e;
        target_accesses mult None seq t
    | If (arms, els) ->
        let site = fresh_branch_site st in
        let n_arms = List.length arms + 1 in
        (* Probability that control reaches the test of arm k, and the sum
           of the arms' probabilities, added in arm order for the else arm. *)
        let reach = ref 1.0 and taken = ref 0.0 in
        List.iteri
          (fun arm (cond, body) ->
            let p =
              Profile.branch_prob st.profile ~behavior:st.behavior ~site ~arm
                ~arms:n_arms
            in
            (* Arm 0's condition is always evaluated; later conditions only
               when no earlier arm was taken. *)
            let cond_mult =
              {
                avg = mult.avg *. !reach;
                mn = (if arm = 0 then mult.mn else 0.0);
                mx = mult.mx;
              }
            in
            let cond_seq = next_seq st in
            expr_reads cond_mult None cond_seq cond;
            reach := !reach -. p;
            taken := !taken +. p;
            let body_mult = mult_scale mult { avg = p; mn = 0.0; mx = 1.0 } in
            List.iter (stmt body_mult) body)
          arms;
        let p_else = max 0.0 (1.0 -. !taken) in
        let else_mult = mult_scale mult { avg = p_else; mn = 0.0; mx = 1.0 } in
        List.iter (stmt else_mult) els
    | Case (subject, alts) ->
        let site = fresh_branch_site st in
        let n_arms = List.length alts in
        let subj_seq = next_seq st in
        expr_reads mult None subj_seq subject;
        List.iteri
          (fun arm (choices, body) ->
            let p =
              Profile.branch_prob st.profile ~behavior:st.behavior ~site ~arm
                ~arms:n_arms
            in
            List.iter
              (function Ch_expr e -> expr_reads mult None subj_seq e | Ch_others -> ())
              choices;
            let body_mult = mult_scale mult { avg = p; mn = 0.0; mx = 1.0 } in
            List.iter (stmt body_mult) body)
          alts
    | For (v, lo, hi, body) ->
        let trips = float_of_int (hi - lo + 1) in
        let body_mult = mult_scale mult { avg = trips; mn = trips; mx = trips } in
        st.loop_vars <- v :: st.loop_vars;
        List.iter (stmt body_mult) body;
        st.loop_vars <- List.tl st.loop_vars
    | While (cond, body) ->
        let site = fresh_while_site st in
        let trips = Profile.while_trips st.profile ~behavior:st.behavior ~site in
        let cond_mult = mult_scale mult { avg = trips; mn = 1.0; mx = 2.0 *. trips } in
        let cond_seq = next_seq st in
        expr_reads cond_mult None cond_seq cond;
        let body_mult = mult_scale mult { avg = trips; mn = 0.0; mx = 2.0 *. trips } in
        List.iter (stmt body_mult) body
    | Loop_forever body ->
        (* One start-to-finish pass of the enclosing process. *)
        List.iter (stmt mult) body
    | Pcall (n, args) ->
        emit (Call n) mult None seq;
        List.iter (expr_reads mult None seq) args
    | Par calls ->
        let gid = st.par_counter in
        st.par_counter <- gid + 1;
        List.iter
          (fun (n, args) ->
            emit (Call n) mult (Some gid) seq;
            List.iter (expr_reads mult (Some gid) seq) args)
          calls
    | Send (ch, e) ->
        expr_reads mult None seq e;
        emit (Message_out ch) mult None seq
    | Receive (ch, t) ->
        emit (Message_in ch) mult None seq;
        target_accesses mult None seq t
    | Wait_until e -> expr_reads mult None seq e
    | Return (Some e) -> expr_reads mult None seq e
    | Wait_for _ | Wait_on _ | Return None | Null_stmt | Exit_loop -> ()
  in
  List.iter (stmt mult_one) body

let make_state ~profile ~behavior =
  {
    profile;
    behavior;
    branch_site = 0;
    while_site = 0;
    seq = 0;
    par_counter = 0;
    loop_vars = [];
  }

let iter ~profile ~behavior ?(on_stmt = fun _ _ -> ()) ?(on_access = ignore)
    ?(on_expr = fun _ _ -> ()) body =
  walk (make_state ~profile ~behavior) ~on_stmt ~on_access ~on_expr body

let events ~profile ~behavior body =
  let acc = ref [] in
  iter ~profile ~behavior ~on_access:(fun e -> acc := e :: !acc) body;
  List.rev !acc
