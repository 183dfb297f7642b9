(* Recording and replaying partitioning decisions. *)

let setup () =
  let slif = Lazy.force Helpers.fuzzy_slif in
  let s = Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic ()) in
  let graph = Slif.Graph.make s in
  let part = Specsyn.Search.seed_partition s in
  (* A non-trivial decision: datapath on the ASIC. *)
  List.iter
    (fun name ->
      match Slif.Types.node_by_name s name with
      | Some n -> Slif.Partition.assign_node part ~node:n.n_id (Slif.Partition.Cproc 1)
      | None -> ())
    [ "evaluate_rule"; "convolve"; "mr1"; "mr2" ];
  (s, graph, part)

let test_roundtrip_assignments () =
  let s, _, part = setup () in
  let text = Slif.Decision.to_string ~note:"datapath on the gate array" part in
  let part' = Slif.Decision.of_string s text in
  Array.iter
    (fun (n : Slif.Types.node) ->
      Alcotest.(check bool) (n.n_name ^ " assignment preserved") true
        (Slif.Partition.comp_of part n.n_id = Slif.Partition.comp_of part' n.n_id))
    s.Slif.Types.nodes;
  Array.iter
    (fun (c : Slif.Types.channel) ->
      Alcotest.(check bool) "channel assignment preserved" true
        (Slif.Partition.bus_of part c.c_id = Slif.Partition.bus_of part' c.c_id))
    s.Slif.Types.chans

let test_roundtrip_metrics_identical () =
  let s, graph, part = setup () in
  let part' = Slif.Decision.of_string s (Slif.Decision.to_string part) in
  let est = Slif.Estimate.create graph part in
  let est' = Slif.Estimate.create graph part' in
  let main =
    match Slif.Types.node_by_name s "fuzzymain" with Some n -> n.n_id | None -> assert false
  in
  Alcotest.(check (float 1e-9)) "same exectime"
    (Slif.Estimate.exectime_us est main)
    (Slif.Estimate.exectime_us est' main);
  Alcotest.(check (float 1e-9)) "same asic size"
    (Slif.Estimate.size est (Slif.Partition.Cproc 1))
    (Slif.Estimate.size est' (Slif.Partition.Cproc 1))

let test_note_preserved () =
  let _, _, part = setup () in
  let text = Slif.Decision.to_string ~note:"try the cheaper fpga next" part in
  Alcotest.(check (option string)) "note" (Some "try the cheaper fpga next")
    (Slif.Decision.note text);
  Alcotest.(check (option string)) "no note" None
    (Slif.Decision.note (Slif.Decision.to_string part))

let test_survives_rebuild () =
  (* The point of name-based identity: a decision recorded against one
     build applies to a fresh build of the same source. *)
  let s, _, part = setup () in
  let text = Slif.Decision.to_string part in
  let fresh =
    let sem = Vhdl.Sem.build (Vhdl.Parser.parse Specs.Spec_fuzzy.text) in
    Specsyn.Alloc.apply
      (Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem))
      (Specsyn.Alloc.proc_asic ())
  in
  let part' = Slif.Decision.of_string fresh text in
  Alcotest.(check bool) "total on the fresh build" true (Helpers.is_total part');
  match Slif.Types.node_by_name fresh "convolve" with
  | Some n ->
      Alcotest.(check bool) "convolve still on the asic" true
        (Slif.Partition.comp_of part' n.n_id = Some (Slif.Partition.Cproc 1));
      ignore (s, part)
  | None -> Alcotest.fail "convolve missing"

let test_wrong_design_rejected () =
  let s, _, _ = setup () in
  match Slif.Decision.of_string s "decision some_other_chip\n" with
  | exception Failure msg ->
      Alcotest.(check bool) "mentions the mismatch" true (String.length msg > 0)
  | _ -> Alcotest.fail "design mismatch accepted"

let test_unknown_names_rejected () =
  let s, _, _ = setup () in
  (match Slif.Decision.of_string s "map nonexistent proc cpu\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown node accepted");
  (match Slif.Decision.of_string s "map fuzzymain proc warp_core\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown component accepted");
  match Slif.Decision.of_string s "chan fuzzymain node nowhere call sysbus\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown channel accepted"

let test_partial_decisions_allowed () =
  let s, _, _ = setup () in
  let part = Slif.Decision.of_string s "map fuzzymain proc cpu\n" in
  Alcotest.(check bool) "one node assigned" true
    (Slif.Partition.comp_of part 0 <> None || Slif.Partition.comp_of part 1 <> None);
  Alcotest.(check bool) "not total" false (Helpers.is_total part)

let suite =
  [
    Alcotest.test_case "assignments round-trip" `Quick test_roundtrip_assignments;
    Alcotest.test_case "metrics identical after replay" `Quick test_roundtrip_metrics_identical;
    Alcotest.test_case "notes preserved" `Quick test_note_preserved;
    Alcotest.test_case "decision survives a rebuild" `Quick test_survives_rebuild;
    Alcotest.test_case "wrong design rejected" `Quick test_wrong_design_rejected;
    Alcotest.test_case "unknown names rejected" `Quick test_unknown_names_rejected;
    Alcotest.test_case "partial decisions allowed" `Quick test_partial_decisions_allowed;
  ]
