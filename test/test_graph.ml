(* Adjacency and call-graph queries over hand-built access graphs. *)

let mk_node id name kind =
  { Slif.Types.n_id = id; n_name = name; n_kind = kind; n_ict = []; n_size = [] }

let behavior = Slif.Types.Behavior { is_process = false }
let variable = Slif.Types.Variable { storage_bits = 8; transfer_bits = 8 }

let mk_chan id src dst kind =
  {
    Slif.Types.c_id = id;
    c_src = src;
    c_dst = dst;
    c_accfreq = 1.0;
    c_accfreq_min = 1.0;
    c_accfreq_max = 1.0;
    c_bits = 8;
    c_tag = None;
    c_kind = kind;
  }

(* a -> b -> c (calls); a -> v, c -> v (var accesses). *)
let chain () =
  let nodes =
    [| mk_node 0 "a" behavior; mk_node 1 "b" behavior; mk_node 2 "c" behavior;
       mk_node 3 "v" variable |]
  in
  let chans =
    [|
      mk_chan 0 0 (Slif.Types.Dnode 1) Slif.Types.Call;
      mk_chan 1 1 (Slif.Types.Dnode 2) Slif.Types.Call;
      mk_chan 2 0 (Slif.Types.Dnode 3) Slif.Types.Var_access;
      mk_chan 3 2 (Slif.Types.Dnode 3) Slif.Types.Var_access;
    |]
  in
  Slif.Graph.make
    {
      Slif.Types.design_name = "chain";
      nodes;
      ports = [||];
      chans;
      procs = [||];
      mems = [||];
      buses = [||];
    }

let test_out_in_chans () =
  let g = chain () in
  Alcotest.(check int) "a has two out-channels" 2 (List.length (Slif.Graph.out_chans g 0));
  Alcotest.(check int) "v has none out" 0 (List.length (Slif.Graph.out_chans g 3));
  Alcotest.(check int) "v has two in-channels" 2 (List.length (Slif.Graph.in_chans g 3));
  Alcotest.(check int) "a has none in" 0 (List.length (Slif.Graph.in_chans g 0))

let test_transitive_callers () =
  let g = chain () in
  (* Moving v invalidates c (direct), b (calls c), a (calls b, accesses v). *)
  Alcotest.(check (list int)) "v's dependents" [ 0; 1; 2; 3 ]
    (List.sort compare (Slif.Graph.transitive_callers g 3));
  Alcotest.(check (list int)) "c's dependents" [ 0; 1; 2 ]
    (List.sort compare (Slif.Graph.transitive_callers g 2))

let test_no_cycle_on_chain () =
  Alcotest.(check bool) "chain is acyclic" false (Slif.Graph.has_call_cycle (chain ()))

let test_cycle_detection () =
  let nodes = [| mk_node 0 "a" behavior; mk_node 1 "b" behavior |] in
  let chans =
    [|
      mk_chan 0 0 (Slif.Types.Dnode 1) Slif.Types.Call;
      mk_chan 1 1 (Slif.Types.Dnode 0) Slif.Types.Call;
    |]
  in
  let g =
    Slif.Graph.make
      {
        Slif.Types.design_name = "cyc";
        nodes;
        ports = [||];
        chans;
        procs = [||];
        mems = [||];
        buses = [||];
      }
  in
  Alcotest.(check bool) "two-node call cycle found" true (Slif.Graph.has_call_cycle g)

let test_self_recursion_detected () =
  let nodes = [| mk_node 0 "a" behavior |] in
  let chans = [| mk_chan 0 0 (Slif.Types.Dnode 0) Slif.Types.Call |] in
  let g =
    Slif.Graph.make
      {
        Slif.Types.design_name = "self";
        nodes;
        ports = [||];
        chans;
        procs = [||];
        mems = [||];
        buses = [||];
      }
  in
  Alcotest.(check bool) "self-call is a cycle" true (Slif.Graph.has_call_cycle g)

let test_var_cycle_is_not_call_cycle () =
  (* a and b both accessing each other's variables is fine. *)
  let nodes = [| mk_node 0 "a" behavior; mk_node 1 "v" variable |] in
  let chans = [| mk_chan 0 0 (Slif.Types.Dnode 1) Slif.Types.Var_access |] in
  let g =
    Slif.Graph.make
      {
        Slif.Types.design_name = "vc";
        nodes;
        ports = [||];
        chans;
        procs = [||];
        mems = [||];
        buses = [||];
      }
  in
  Alcotest.(check bool) "no call cycle" false (Slif.Graph.has_call_cycle g)

let test_channel_order_preserved () =
  let g = chain () in
  match Slif.Graph.out_chans g 0 with
  | [ c0; c1 ] ->
      Alcotest.(check int) "first channel first" 0 c0.Slif.Types.c_id;
      Alcotest.(check int) "second channel second" 2 c1.Slif.Types.c_id
  | _ -> Alcotest.fail "expected two channels"

let suite =
  [
    Alcotest.test_case "out/in channels" `Quick test_out_in_chans;
    Alcotest.test_case "transitive callers" `Quick test_transitive_callers;
    Alcotest.test_case "chain acyclic" `Quick test_no_cycle_on_chain;
    Alcotest.test_case "call cycle detected" `Quick test_cycle_detection;
    Alcotest.test_case "self recursion detected" `Quick test_self_recursion_detected;
    Alcotest.test_case "variable edges are not call cycles" `Quick test_var_cycle_is_not_call_cycle;
    Alcotest.test_case "channel order preserved" `Quick test_channel_order_preserved;
  ]
