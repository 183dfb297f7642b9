(* Comparator formats: granularity ordering and rough synthesis. *)

let tiny_design = lazy (Vhdl.Parser.parse Helpers.tiny_source)

(* The schedulable operation nodes, and the nodes feeding data into one. *)
let op_nodes (g : Cdfg.Graph.t) =
  Array.to_list g.nodes
  |> List.filter (fun (n : Cdfg.Graph.node) ->
         match n.kind with Cdfg.Graph.Op _ -> true | _ -> false)

let data_predecessors (g : Cdfg.Graph.t) id =
  Array.to_list g.edges
  |> List.filter_map (fun (e : Cdfg.Graph.edge) ->
         if e.e_dst = id && e.e_kind = Cdfg.Graph.Data then Some e.e_src else None)

let test_cdfg_counts_small () =
  let g = Cdfg.Graph.of_design (Lazy.force tiny_design) in
  Alcotest.(check bool) "has nodes" true (Cdfg.Graph.node_count g > 5);
  Alcotest.(check bool) "has edges" true (Cdfg.Graph.edge_count g > 4)

let test_cdfg_op_nodes () =
  let g = Cdfg.Graph.of_design (Lazy.force tiny_design) in
  (* helper computes v + 1: at least one Add op. *)
  let ops = op_nodes g in
  Alcotest.(check bool) "has an add" true
    (List.exists
       (fun (n : Cdfg.Graph.node) -> n.kind = Cdfg.Graph.Op Tech.Optype.Add)
       ops)

let test_cdfg_data_preds () =
  let g = Cdfg.Graph.of_design (Lazy.force tiny_design) in
  let ops = op_nodes g in
  List.iter
    (fun (n : Cdfg.Graph.node) ->
      match n.kind with
      | Cdfg.Graph.Op _ ->
          let preds = data_predecessors g n.id in
          Alcotest.(check bool) "op has operands" true (preds <> []);
          List.iter
            (fun p -> Alcotest.(check bool) "topological ids" true (p < n.id))
            preds
      | _ -> ())
    ops

let granularity_ordering (spec : Specs.Registry.spec) =
  let design = Vhdl.Parser.parse spec.source in
  let sem = Vhdl.Sem.build design in
  let slif_stats = Slif.Stats.of_slif (Slif.Build.build sem) in
  let add = Addfmt.Add.of_design design in
  let cdfg = Cdfg.Graph.of_design design in
  let s = slif_stats.Slif.Stats.bv in
  let a = Addfmt.Add.node_count add in
  let c = Cdfg.Graph.node_count cdfg in
  Alcotest.(check bool)
    (Printf.sprintf "%s: SLIF(%d) < ADD(%d) < CDFG(%d)" spec.spec_name s a c)
    true
    (s < a && a < c);
  (* The paper's headline ratio: an order of magnitude or more. *)
  Alcotest.(check bool)
    (spec.spec_name ^ ": CDFG at least 5x SLIF") true
    (c >= 5 * s)

let test_granularity_all_specs () = List.iter granularity_ordering Specs.Registry.all

let test_synthesis_produces_area_and_schedule () =
  let g = Cdfg.Graph.of_design (Vhdl.Parser.parse Specs.Spec_fuzzy.text) in
  let r = Cdfg.Synthest.rough_synthesis Tech.Parts.asic_gal g in
  Alcotest.(check bool) "positive area" true (r.Cdfg.Synthest.gates > 0.0);
  Alcotest.(check bool) "positive schedule" true (r.Cdfg.Synthest.csteps > 0);
  Alcotest.(check bool) "some FUs allocated" true (r.Cdfg.Synthest.fu_used <> [])

let test_synthesis_subset_smaller () =
  let g = Cdfg.Graph.of_design (Vhdl.Parser.parse Specs.Spec_fuzzy.text) in
  let full = Cdfg.Synthest.rough_synthesis Tech.Parts.asic_gal g in
  let partial =
    Cdfg.Synthest.rough_synthesis
      ~belongs:(fun n -> n.Cdfg.Graph.behavior = "evaluate_rule")
      Tech.Parts.asic_gal g
  in
  Alcotest.(check bool) "subset costs less area" true
    (partial.Cdfg.Synthest.gates < full.Cdfg.Synthest.gates);
  Alcotest.(check bool) "subset schedules shorter" true
    (partial.Cdfg.Synthest.csteps < full.Cdfg.Synthest.csteps)

let test_synthesis_sharing_beats_naive_sum () =
  (* The Results-section argument: naively summing per-op FU areas ignores
     sharing, so the bound synthesis must come out well below it. *)
  let g = Cdfg.Graph.of_design (Vhdl.Parser.parse Specs.Spec_fuzzy.text) in
  let r = Cdfg.Synthest.rough_synthesis Tech.Parts.asic_gal g in
  let naive =
    List.fold_left
      (fun acc (n : Cdfg.Graph.node) ->
        match n.kind with
        | Cdfg.Graph.Op op ->
            acc +. (Tech.Parts.asic_gal.Tech.Asic_model.fu_of op).Tech.Asic_model.area_gates
        | _ -> acc)
      0.0
      (Array.to_list g.Cdfg.Graph.nodes)
  in
  Alcotest.(check bool) "shared FU area below naive sum" true
    (r.Cdfg.Synthest.gates < naive *. 2.0);
  let fu_area =
    List.fold_left
      (fun acc (op, d) ->
        acc
        +. float_of_int d
           *. (Tech.Parts.asic_gal.Tech.Asic_model.fu_of op).Tech.Asic_model.area_gates)
      0.0 r.Cdfg.Synthest.fu_used
  in
  Alcotest.(check bool) "FU area alone far below naive sum" true (fu_area < naive /. 2.0)

let test_add_shares_access_nodes () =
  let d =
    Vhdl.Parser.parse
      {|entity e is end;
architecture a of e is
  shared variable x : integer;
begin
  p: process
  begin
    x := x + 1;
    x := x + 2;
    wait for 1 us;
  end process;
end;|}
  in
  let add = Addfmt.Add.of_design d in
  let access_count =
    Array.to_list add.Addfmt.Add.nodes
    |> List.filter (fun (n : Addfmt.Add.node) ->
           match n.kind with Addfmt.Add.Access "x" -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "one shared access point for x" 1 access_count;
  let decision_count =
    Array.to_list add.Addfmt.Add.nodes
    |> List.filter (fun (n : Addfmt.Add.node) ->
           match n.kind with Addfmt.Add.Decision "x" -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "one decision per assignment" 2 decision_count

let suite =
  [
    Alcotest.test_case "cdfg counts on a small design" `Quick test_cdfg_counts_small;
    Alcotest.test_case "cdfg op nodes" `Quick test_cdfg_op_nodes;
    Alcotest.test_case "cdfg data predecessors topological" `Quick test_cdfg_data_preds;
    Alcotest.test_case "granularity ordering on all specs" `Quick test_granularity_all_specs;
    Alcotest.test_case "rough synthesis output" `Quick test_synthesis_produces_area_and_schedule;
    Alcotest.test_case "rough synthesis on a subset" `Quick test_synthesis_subset_smaller;
    Alcotest.test_case "FU sharing beats naive summing" `Quick test_synthesis_sharing_beats_naive_sum;
    Alcotest.test_case "ADD shares access nodes" `Quick test_add_shares_access_nodes;
  ]
