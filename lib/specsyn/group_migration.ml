(* Passes stop after this many even while they still improve. *)
let max_passes = 8

let run ?replica (problem : Search.problem) =
  Slif_obs.Span.with_ "search.group_migration" @@ fun () ->
  let s = Slif.Graph.slif problem.graph in
  let part = Search.seed_partition s in
  let eng = Engine.start ?replica problem part in
  let n = Array.length s.nodes in
  let current_cost = ref (Engine.cost eng) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    Slif_obs.Counter.incr "search.gm_passes";
    let locked = Array.make n false in
    (* A pass: commit the best single move among unlocked nodes, lock the
       moved node, repeat; keep the best state seen during the pass. *)
    let best_pass_cost = ref !current_cost in
    let best_pass_part = ref (Slif.Partition.copy part) in
    let continue_pass = ref true in
    while !continue_pass do
      let best_move = ref None in
      for id = 0 to n - 1 do
        if not locked.(id) then begin
          let original = Slif.Partition.comp_of_exn part id in
          Array.iter
            (fun comp ->
              if comp <> original then begin
                let c = Engine.propose eng (Engine.Move_node { node = id; to_ = comp }) in
                Engine.rollback eng;
                match !best_move with
                | Some (_, _, bc) when bc <= c -> ()
                | _ -> best_move := Some (id, comp, c)
              end)
            (Engine.candidates eng id)
        end
      done;
      match !best_move with
      | None -> continue_pass := false
      | Some (id, comp, c) ->
          ignore (Engine.propose eng (Engine.Move_node { node = id; to_ = comp }));
          Engine.commit eng;
          locked.(id) <- true;
          current_cost := c;
          if c < !best_pass_cost then begin
            best_pass_cost := c;
            best_pass_part := Slif.Partition.copy part;
            improved := true
          end;
          (* Stop early when every node is locked. *)
          if Array.for_all (fun l -> l) locked then continue_pass := false
    done;
    (* Revert to the best prefix of the pass, as one atomic group move. *)
    (match Engine.moves_to eng !best_pass_part with
    | [] -> ()
    | moves ->
        ignore (Engine.propose eng (Engine.Move_group moves));
        Engine.commit eng);
    current_cost := !best_pass_cost
  done;
  { Search.part; cost = !current_cost; evaluated = Engine.moves_scored eng + 1 }
