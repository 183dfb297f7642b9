(* Partition representation and proper-partition validation. *)

let fixture () = Helpers.all_on_cpu (Lazy.force Helpers.tiny_slif)

let test_totality () =
  let s, part = fixture () in
  Alcotest.(check bool) "total" true (Helpers.is_total part);
  let fresh = Slif.Partition.create s in
  Alcotest.(check bool) "fresh is not total" false (Helpers.is_total fresh)

let test_version_bumps () =
  let _, part = fixture () in
  let v0 = Slif.Partition.version part in
  Slif.Partition.assign_node part ~node:0 (Slif.Partition.Cproc 1);
  Alcotest.(check bool) "bumped" true (Slif.Partition.version part > v0)

let test_copy_independent () =
  let _, part = fixture () in
  let copy = Slif.Partition.copy part in
  Slif.Partition.assign_node part ~node:0 (Slif.Partition.Cproc 1);
  Alcotest.(check bool) "copy unchanged" true
    (Slif.Partition.comp_of copy 0 = Some (Slif.Partition.Cproc 0))

let test_comp_of_exn () =
  let s, _ = fixture () in
  let fresh = Slif.Partition.create s in
  match Slif.Partition.comp_of_exn fresh 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on unassigned node"

let test_bad_assignments_rejected () =
  let s, _ = fixture () in
  let part = Slif.Partition.create s in
  (match Slif.Partition.assign_node part ~node:0 (Slif.Partition.Cproc 99) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nonexistent processor accepted");
  (match Slif.Partition.assign_node part ~node:9999 (Slif.Partition.Cproc 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nonexistent node accepted");
  match Slif.Partition.assign_chan part ~chan:0 ~bus:42 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nonexistent bus accepted"

let test_nodes_of_comp () =
  let s, part = fixture () in
  let on_cpu = Slif.Partition.nodes_of_comp part (Slif.Partition.Cproc 0) in
  Alcotest.(check int) "everything on cpu" (Array.length s.Slif.Types.nodes)
    (List.length on_cpu);
  Alcotest.(check (list int)) "nothing on asic" []
    (Slif.Partition.nodes_of_comp part (Slif.Partition.Cproc 1))

let test_same_component () =
  let s, part = fixture () in
  let chan =
    Array.to_list s.Slif.Types.chans
    |> List.find (fun (c : Slif.Types.channel) ->
           match c.c_dst with Slif.Types.Dnode _ -> true | Slif.Types.Dport _ -> false)
  in
  match chan.c_dst with
  | Slif.Types.Dnode d ->
      Alcotest.(check bool) "co-located" true
        (Slif.Partition.same_component_nodes part chan.c_src d);
      Slif.Partition.assign_node part ~node:d (Slif.Partition.Cproc 1);
      Alcotest.(check bool) "split" false
        (Slif.Partition.same_component_nodes part chan.c_src d);
      (* An unassigned node is on no component. *)
      let fresh = Slif.Partition.create s in
      Alcotest.(check bool) "unassigned never co-located" false
        (Slif.Partition.same_component_nodes fresh chan.c_src d)
  | Slif.Types.Dport _ -> Alcotest.fail "expected a node destination"

let test_validate_proper () =
  let _, part = fixture () in
  Alcotest.(check bool) "proper" true (Slif.Validate.is_proper part)

let test_validate_unassigned () =
  let s, _ = fixture () in
  let part = Slif.Partition.create s in
  let violations = Slif.Validate.check part in
  Alcotest.(check bool) "unassigned nodes reported" true
    (List.exists
       (function Slif.Validate.Unassigned_node _ -> true | _ -> false)
       violations);
  Alcotest.(check bool) "unassigned channels reported" true
    (List.exists
       (function Slif.Validate.Unassigned_chan _ -> true | _ -> false)
       violations)

let test_validate_behavior_on_memory () =
  let s, part = fixture () in
  let behavior =
    Array.to_list s.Slif.Types.nodes |> List.find (fun n -> Slif.Types.is_behavior n)
  in
  Slif.Partition.assign_node part ~node:behavior.Slif.Types.n_id (Slif.Partition.Cmem 0);
  let violations = Slif.Validate.check part in
  Alcotest.(check bool) "behavior-on-memory reported" true
    (List.exists
       (function Slif.Validate.Behavior_on_memory _ -> true | _ -> false)
       violations);
  Alcotest.(check bool) "message is readable" true
    (List.for_all
       (fun v -> String.length (Slif.Validate.violation_to_string s v) > 0)
       violations)

let test_validate_variable_on_memory_ok () =
  let s, part = fixture () in
  let variable =
    Array.to_list s.Slif.Types.nodes |> List.find (fun n -> Slif.Types.is_variable n)
  in
  Slif.Partition.assign_node part ~node:variable.Slif.Types.n_id (Slif.Partition.Cmem 0);
  Alcotest.(check bool) "still proper" true (Slif.Validate.is_proper part)

(* The accessors read unboxed slots and return shared preallocated values:
   a loop over them allocates nothing on the minor heap. *)
let test_accessors_do_not_allocate () =
  let s, part = fixture () in
  Slif.Partition.assign_node part ~node:0 (Slif.Partition.Cproc 1);
  let n_nodes = Array.length s.Slif.Types.nodes and n_chans = Array.length s.Slif.Types.chans in
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 100 do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let nothing = words (fun () -> ()) in
  let check name f =
    Alcotest.(check (float 0.0)) (name ^ " allocates nothing") nothing (words f)
  in
  check "comp_of" (fun () ->
      for i = 0 to n_nodes - 1 do
        ignore (Sys.opaque_identity (Slif.Partition.comp_of part i))
      done);
  check "comp_of_exn" (fun () ->
      for i = 0 to n_nodes - 1 do
        ignore (Sys.opaque_identity (Slif.Partition.comp_of_exn part i))
      done);
  check "bus_of" (fun () ->
      for i = 0 to n_chans - 1 do
        ignore (Sys.opaque_identity (Slif.Partition.bus_of part i))
      done);
  check "same_component_nodes" (fun () ->
      for i = 0 to n_nodes - 1 do
        ignore (Sys.opaque_identity (Slif.Partition.same_component_nodes part 0 i))
      done);
  (* Shared, yet equal to freshly built values. *)
  Alcotest.(check bool) "comp_of value" true
    (Slif.Partition.comp_of part 0 = Some (Slif.Partition.Cproc 1));
  Alcotest.(check bool) "bus_of value" true (Slif.Partition.bus_of part 0 = Some 0)

let comp =
  Alcotest.testable
    (fun ppf -> function
      | Slif.Partition.Cproc p -> Format.fprintf ppf "Cproc %d" p
      | Slif.Partition.Cmem m -> Format.fprintf ppf "Cmem %d" m)
    ( = )

let test_enumerations () =
  let s = Helpers.proc_asic_components (Lazy.force Helpers.tiny_slif) in
  let part = Slif.Partition.create s in
  let n_chans = Array.length s.Slif.Types.chans in
  Alcotest.(check (list (pair int comp))) "nothing assigned" [] (Helpers.assignments part);
  Slif.Partition.assign_node part ~node:2 (Slif.Partition.Cmem 0);
  Slif.Partition.assign_node part ~node:0 (Slif.Partition.Cproc 1);
  Slif.Partition.assign_chan part ~chan:(n_chans - 1) ~bus:0;
  Alcotest.(check (list (pair int comp)))
    "assignments ascend by node id"
    [ (0, Slif.Partition.Cproc 1); (2, Slif.Partition.Cmem 0) ]
    (Helpers.assignments part);
  Alcotest.(check (list (pair int int)))
    "chan_assignments" [ (n_chans - 1, 0) ] (Helpers.chan_assignments part);
  Alcotest.(check bool) "partial" false (Helpers.is_total part);
  Alcotest.(check int) "comp_index" (-1) (Slif.Partition.comp_index part 1);
  Alcotest.(check int) "memory index follows the processors" 2
    (Slif.Partition.comp_index part 2);
  Alcotest.(check int) "index_of_comp agrees" 2
    (Slif.Partition.index_of_comp part (Slif.Partition.Cmem 0));
  Alcotest.(check int) "index_of_comp, no such memory" (-1)
    (Slif.Partition.index_of_comp part (Slif.Partition.Cmem 1));
  Array.iteri
    (fun i _ -> Slif.Partition.assign_node part ~node:i (Slif.Partition.Cproc 0))
    s.Slif.Types.nodes;
  Slif.Partition.assign_all_chans part ~bus:0;
  Alcotest.(check bool) "total" true (Helpers.is_total part);
  Alcotest.(check (list (pair int int)))
    "every channel on bus 0"
    (List.init n_chans (fun c -> (c, 0)))
    (Helpers.chan_assignments part)

let test_copy_and_restore () =
  let _, part = fixture () in
  let copy = Slif.Partition.copy part in
  Alcotest.(check int) "copy keeps the version" (Slif.Partition.version part)
    (Slif.Partition.version copy);
  let v = Slif.Partition.version copy in
  Slif.Partition.assign_node copy ~node:1 (Slif.Partition.Cmem 0);
  Alcotest.(check bool) "original unchanged" true
    (Slif.Partition.comp_of part 1 = Some (Slif.Partition.Cproc 0));
  Slif.Partition.assign_node copy ~node:1 (Slif.Partition.Cproc 0);
  Slif.Partition.restore_version copy v;
  Alcotest.(check int) "restored" v (Slif.Partition.version copy);
  Alcotest.check_raises "future version"
    (Invalid_argument "Partition.restore_version: version from the future") (fun () ->
      Slif.Partition.restore_version copy (v + 1))

(* Component indices are processors first, then memories; a component
   past the processors must not alias the first memory. *)
let test_nodes_of_comp_out_of_range () =
  let s, part = fixture () in
  let n_procs = Array.length s.Slif.Types.procs in
  Slif.Partition.assign_node part ~node:0 (Slif.Partition.Cmem 0);
  List.iter
    (fun c -> Alcotest.(check (list int)) "no members" [] (Slif.Partition.nodes_of_comp part c))
    [
      Slif.Partition.Cproc n_procs;
      Slif.Partition.Cproc 99;
      Slif.Partition.Cproc (-1);
      Slif.Partition.Cmem 1;
      Slif.Partition.Cmem (-2);
    ];
  Alcotest.(check (list int)) "memory member" [ 0 ]
    (Slif.Partition.nodes_of_comp part (Slif.Partition.Cmem 0))

let suite =
  [
    Alcotest.test_case "totality" `Quick test_totality;
    Alcotest.test_case "version bumps on assignment" `Quick test_version_bumps;
    Alcotest.test_case "copies are independent" `Quick test_copy_independent;
    Alcotest.test_case "comp_of_exn on unassigned" `Quick test_comp_of_exn;
    Alcotest.test_case "bad assignments rejected" `Quick test_bad_assignments_rejected;
    Alcotest.test_case "nodes_of_comp" `Quick test_nodes_of_comp;
    Alcotest.test_case "same_component" `Quick test_same_component;
    Alcotest.test_case "validate accepts proper partitions" `Quick test_validate_proper;
    Alcotest.test_case "validate reports unassigned objects" `Quick test_validate_unassigned;
    Alcotest.test_case "validate rejects behavior on memory" `Quick test_validate_behavior_on_memory;
    Alcotest.test_case "variables may map to memories" `Quick test_validate_variable_on_memory_ok;
    Alcotest.test_case "accessors do not allocate" `Quick test_accessors_do_not_allocate;
    Alcotest.test_case "enumerations" `Quick test_enumerations;
    Alcotest.test_case "copy and restore_version" `Quick test_copy_and_restore;
    Alcotest.test_case "nodes_of_comp out of range" `Quick test_nodes_of_comp_out_of_range;
  ]
