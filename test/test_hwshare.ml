(* Shared-hardware area estimation (the paper's reference [1] refinement). *)

let setup () =
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse Specs.Spec_fuzzy.text) in
  let slif = Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem) in
  let demands = Slif.Hwshare.demands ~techs:Tech.Parts.all sem in
  let s = Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic ()) in
  let graph = Slif.Graph.make s in
  let part = Specsyn.Search.seed_partition s in
  (s, graph, part, demands)

let move_to_asic s part names =
  List.iter
    (fun name ->
      match Slif.Types.node_by_name s name with
      | Some n -> Slif.Partition.assign_node part ~node:n.n_id (Slif.Partition.Cproc 1)
      | None -> Alcotest.fail (name ^ " missing"))
    names

let test_demands_cover_custom_techs () =
  let s, graph, part, demands = setup () in
  move_to_asic s part [ "convolve" ];
  let est = Specsyn.Search.estimator graph part in
  Alcotest.(check bool) "positive shared area on the gate array" true
    (Slif.Hwshare.size est demands (Slif.Partition.Cproc 1) > 0.0)

let test_single_behavior_equals_naive () =
  let s, graph, part, demands = setup () in
  move_to_asic s part [ "convolve" ];
  let est = Specsyn.Search.estimator graph part in
  Alcotest.(check (float 1e-6)) "one behavior: nothing to share"
    (Slif.Estimate.size est (Slif.Partition.Cproc 1))
    (Slif.Hwshare.size est demands (Slif.Partition.Cproc 1))

let test_sharing_never_exceeds_naive () =
  let s, graph, part, demands = setup () in
  move_to_asic s part [ "convolve"; "evaluate_rule"; "compute_centroid"; "smooth_output" ];
  let est = Specsyn.Search.estimator graph part in
  let naive = Slif.Estimate.size est (Slif.Partition.Cproc 1) in
  let shared = Slif.Hwshare.size est demands (Slif.Partition.Cproc 1) in
  Alcotest.(check bool) "upper bound" true (shared <= naive +. 1e-9);
  (* These behaviors all use adders/multipliers: real sharing occurs. *)
  Alcotest.(check bool)
    (Printf.sprintf "strict saving (%.0f < %.0f)" shared naive)
    true (shared < naive)

let test_monotone_in_members () =
  let s, graph, part, demands = setup () in
  move_to_asic s part [ "convolve" ];
  let est = Specsyn.Search.estimator graph part in
  let one = Slif.Hwshare.size est demands (Slif.Partition.Cproc 1) in
  move_to_asic s part [ "evaluate_rule" ];
  let est = Specsyn.Search.estimator graph part in
  let two = Slif.Hwshare.size est demands (Slif.Partition.Cproc 1) in
  Alcotest.(check bool) "more members, more area" true (two > one)

let test_standard_components_unchanged () =
  let _, graph, part, demands = setup () in
  let est = Specsyn.Search.estimator graph part in
  Alcotest.(check (float 1e-9)) "cpu bytes identical"
    (Slif.Estimate.size est (Slif.Partition.Cproc 0))
    (Slif.Hwshare.size est demands (Slif.Partition.Cproc 0));
  Alcotest.(check (float 1e-9)) "no saving on software" 0.0
    (Slif.Estimate.size est (Slif.Partition.Cproc 0)
    -. Slif.Hwshare.size est demands (Slif.Partition.Cproc 0))

let test_variables_do_not_share () =
  (* Variables contribute register area; mapping only variables to the
     ASIC leaves naive and shared equal. *)
  let s, graph, part, demands = setup () in
  move_to_asic s part [ "mr1"; "mr2" ];
  let est = Specsyn.Search.estimator graph part in
  Alcotest.(check (float 1e-6)) "registers are not shared"
    (Slif.Estimate.size est (Slif.Partition.Cproc 1))
    (Slif.Hwshare.size est demands (Slif.Partition.Cproc 1))

let suite =
  [
    Alcotest.test_case "demands table" `Quick test_demands_cover_custom_techs;
    Alcotest.test_case "single member equals naive" `Quick test_single_behavior_equals_naive;
    Alcotest.test_case "sharing bounded by naive sum" `Quick test_sharing_never_exceeds_naive;
    Alcotest.test_case "monotone in members" `Quick test_monotone_in_members;
    Alcotest.test_case "standard components unchanged" `Quick test_standard_components_unchanged;
    Alcotest.test_case "variables do not share" `Quick test_variables_do_not_share;
  ]
