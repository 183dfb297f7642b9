(* Section 3 equations, checked against hand-computed values on a small
   hand-built SLIF:

     a (process, ict 10 on tp) --c0: freq 3, 20b--> v (variable)
     a --c1: freq 2, 8b--> b (procedure, ict 5 on tp)
     b --c2: freq 1, 20b--> v
     a --c3: freq 4, 8b--> out1 (port)

   One 16-bit bus with ts=1us, td=5us.  All objects on cpu (tech tp):
     exectime(b) = 5 + 1*(ceil(20/16)*1 + 2)            = 9
     exectime(a) = 10 + 3*(2*1+2) + 2*(1*1+9) + 4*(1*5) = 62
   (the port access pays td because a port is never on the component). *)

let mk_node id name kind ict size =
  { Slif.Types.n_id = id; n_name = name; n_kind = kind; n_ict = ict; n_size = size }

let mk_chan id src dst freq mn mx bits tag kind =
  {
    Slif.Types.c_id = id;
    c_src = src;
    c_dst = dst;
    c_accfreq = freq;
    c_accfreq_min = mn;
    c_accfreq_max = mx;
    c_bits = bits;
    c_tag = tag;
    c_kind = kind;
  }

let fixture ?(tags = (None, None)) () =
  let tag0, tag1 = tags in
  let nodes =
    [|
      mk_node 0 "a"
        (Slif.Types.Behavior { is_process = true })
        [ ("tp", 10.0); ("ta", 4.0) ]
        [ ("tp", 100.0); ("ta", 900.0) ];
      mk_node 1 "v"
        (Slif.Types.Variable { storage_bits = 64; transfer_bits = 20 })
        [ ("tp", 2.0); ("ta", 1.0); ("tm", 3.0) ]
        [ ("tp", 8.0); ("ta", 512.0); ("tm", 4.0) ];
      mk_node 2 "b"
        (Slif.Types.Behavior { is_process = false })
        [ ("tp", 5.0); ("ta", 2.0) ]
        [ ("tp", 50.0); ("ta", 400.0) ];
    |]
  in
  let ports = [| { Slif.Types.pt_id = 0; pt_name = "out1"; pt_bits = 8; pt_dir = Slif.Types.Pout } |] in
  let chans =
    [|
      mk_chan 0 0 (Slif.Types.Dnode 1) 3.0 1.0 6.0 20 tag0 Slif.Types.Var_access;
      mk_chan 1 0 (Slif.Types.Dnode 2) 2.0 1.0 4.0 8 tag1 Slif.Types.Call;
      mk_chan 2 2 (Slif.Types.Dnode 1) 1.0 1.0 2.0 20 None Slif.Types.Var_access;
      mk_chan 3 0 (Slif.Types.Dport 0) 4.0 2.0 8.0 8 None Slif.Types.Port_access;
    |]
  in
  let procs =
    [|
      {
        Slif.Types.p_id = 0;
        p_name = "cpu";
        p_kind = Slif.Types.Standard;
        p_tech = "tp";
        p_size_constraint = Some 1000.0;
        p_io_constraint = Some 64;
      };
      {
        Slif.Types.p_id = 1;
        p_name = "hw";
        p_kind = Slif.Types.Custom;
        p_tech = "ta";
        p_size_constraint = None;
        p_io_constraint = Some 32;
      };
    |]
  in
  let mems =
    [| { Slif.Types.m_id = 0; m_name = "ram"; m_tech = "tm"; m_size_constraint = None } |]
  in
  let buses =
    [|
      {
        Slif.Types.b_id = 0;
        b_name = "bus";
        b_bitwidth = 16;
        b_ts_us = 1.0;
        b_td_us = 5.0;
        b_capacity_mbps = Some 2.0;
        b_ts_by_tech = [];
        b_td_by_pair = [];
      };
    |]
  in
  { Slif.Types.design_name = "fixture"; nodes; ports; chans; procs; mems; buses }

let all_on_cpu s =
  let part = Slif.Partition.create s in
  Array.iteri (fun i _ -> Slif.Partition.assign_node part ~node:i (Slif.Partition.Cproc 0)) s.Slif.Types.nodes;
  Slif.Partition.assign_all_chans part ~bus:0;
  part

let estimator ?mode ?concurrency ?recursion_depth s part =
  Slif.Estimate.create ?mode ?concurrency ?recursion_depth (Slif.Graph.make s) part

let checkf = Alcotest.(check (float 1e-9))

let test_exectime_same_component () =
  let s = fixture () in
  let est = estimator s (all_on_cpu s) in
  checkf "exectime(b)" 9.0 (Slif.Estimate.exectime_us est 2);
  checkf "exectime(a)" 62.0 (Slif.Estimate.exectime_us est 0)

let test_exectime_cross_component () =
  (* Move v to the memory: every access to it now pays td=5 per transfer
     and v's ict on tm (3.0):
       exectime(b) = 5 + 1*(2*5+3)           = 18
       exectime(a) = 10 + 3*13 + 2*(1+18) + 20 = 107 *)
  let s = fixture () in
  let part = all_on_cpu s in
  Slif.Partition.assign_node part ~node:1 (Slif.Partition.Cmem 0);
  let est = estimator s part in
  checkf "exectime(b) split" 18.0 (Slif.Estimate.exectime_us est 2);
  checkf "exectime(a) split" 107.0 (Slif.Estimate.exectime_us est 0)

let test_exectime_variable_is_its_ict () =
  let s = fixture () in
  let est = estimator s (all_on_cpu s) in
  checkf "exectime(v) = access ict" 2.0 (Slif.Estimate.exectime_us est 1)

let test_transfer_time () =
  let s = fixture () in
  let est = estimator s (all_on_cpu s) in
  (* 20 bits over 16 wires: two transfers at ts. *)
  checkf "c0 transfer" 2.0 (Slif.Estimate.transfer_time_us est s.Slif.Types.chans.(0));
  (* Port destination is off-component: td. *)
  checkf "c3 transfer" 5.0 (Slif.Estimate.transfer_time_us est s.Slif.Types.chans.(3))

let test_modes () =
  let s = fixture () in
  let part = all_on_cpu s in
  let avg = Slif.Estimate.exectime_us (estimator s part) 0 in
  let mn = Slif.Estimate.exectime_us (estimator ~mode:Slif.Estimate.Min s part) 0 in
  let mx = Slif.Estimate.exectime_us (estimator ~mode:Slif.Estimate.Max s part) 0 in
  Alcotest.(check bool) "min <= avg" true (mn <= avg);
  Alcotest.(check bool) "avg <= max" true (avg <= mx);
  (* min: 10 + 1*4 + 1*(1 + (5+1*4)) + 2*5 = 34 *)
  checkf "min exact" 34.0 mn

let test_concurrency_tags () =
  (* Tag c0 and c1 together: their costs (12 and 20) overlap, so a's
     communication is max(12,20) + 20 (untagged port) = 40. *)
  let s = fixture ~tags:(Some 1, Some 1) () in
  let part = all_on_cpu s in
  let seq = Slif.Estimate.exectime_us (estimator s part) 0 in
  let conc = Slif.Estimate.exectime_us (estimator ~concurrency:true s part) 0 in
  checkf "sequential unchanged" 62.0 seq;
  checkf "concurrent overlaps tagged channels" 50.0 conc

let test_bitrate () =
  let s = fixture () in
  let est = estimator s (all_on_cpu s) in
  (* ChanBitrate(c0) = 3*20/62. *)
  checkf "chan bitrate" (60.0 /. 62.0)
    (Slif.Estimate.chan_bitrate_mbps est s.Slif.Types.chans.(0));
  let expected_bus =
    (60.0 /. 62.0) +. (16.0 /. 62.0) +. (20.0 /. 9.0) +. (32.0 /. 62.0)
  in
  checkf "bus bitrate is the sum" expected_bus (Slif.Estimate.bus_bitrate_mbps est 0)

let test_size () =
  let s = fixture () in
  let part = all_on_cpu s in
  let est = estimator s part in
  checkf "size(cpu) = 100+8+50" 158.0 (Slif.Estimate.size est (Slif.Partition.Cproc 0));
  checkf "size(hw) empty" 0.0 (Slif.Estimate.size est (Slif.Partition.Cproc 1));
  Slif.Partition.assign_node part ~node:1 (Slif.Partition.Cmem 0);
  let est = estimator s part in
  checkf "size(cpu) after move" 150.0 (Slif.Estimate.size est (Slif.Partition.Cproc 0));
  checkf "size(ram) = v in words" 4.0 (Slif.Estimate.size est (Slif.Partition.Cmem 0))

let test_io_pins () =
  let s = fixture () in
  let part = all_on_cpu s in
  let est = estimator s part in
  (* Only the port channel crosses cpu's boundary; it rides the 16-bit bus. *)
  Alcotest.(check int) "cpu pins" 16 (Slif.Estimate.io_pins est (Slif.Partition.Cproc 0));
  Alcotest.(check int) "hw pins (no members)" 0
    (Slif.Estimate.io_pins est (Slif.Partition.Cproc 1));
  Alcotest.(check int) "one cut channel" 1
    (List.length (Slif.Estimate.cut_chans est (Slif.Partition.Cproc 0)));
  (* Moving b to hw cuts a->b and b->v as well, but the pin count stays at
     the single shared bus's width. *)
  Slif.Partition.assign_node part ~node:2 (Slif.Partition.Cproc 1);
  let est = estimator s part in
  Alcotest.(check int) "hw pins after move" 16 (Slif.Estimate.io_pins est (Slif.Partition.Cproc 1));
  Alcotest.(check int) "three cut channels for cpu" 3
    (List.length (Slif.Estimate.cut_chans est (Slif.Partition.Cproc 0)))

let test_missing_weight_rejected () =
  let s = fixture () in
  let part = all_on_cpu s in
  (* Behavior b has no weight for the memory technology. *)
  Slif.Partition.assign_node part ~node:2 (Slif.Partition.Cmem 0);
  let est = estimator s part in
  match Slif.Estimate.exectime_us est 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for missing weight"

let test_partial_partition_rejected () =
  let s = fixture () in
  let part = Slif.Partition.create s in
  let est = estimator s part in
  match Slif.Estimate.exectime_us est 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for partial partition"

let recursive_fixture () =
  let s = fixture () in
  (* Add a back-call b -> a, closing a cycle. *)
  let chans =
    Array.append s.Slif.Types.chans
      [| mk_chan 4 2 (Slif.Types.Dnode 0) 1.0 1.0 1.0 8 None Slif.Types.Call |]
  in
  { s with Slif.Types.chans }

let test_recursion_detected () =
  let s = recursive_fixture () in
  let est = estimator s (all_on_cpu s) in
  match Slif.Estimate.exectime_us est 0 with
  | exception Slif.Estimate.Recursive_specification _ -> ()
  | _ -> Alcotest.fail "expected Recursive_specification"

let test_recursion_unrolled () =
  let s = recursive_fixture () in
  let est = estimator ~recursion_depth:3 s (all_on_cpu s) in
  let t = Slif.Estimate.exectime_us est 0 in
  Alcotest.(check bool) "finite and positive" true (t > 0.0 && Float.is_finite t);
  let deeper = Slif.Estimate.exectime_us (estimator ~recursion_depth:6 s (all_on_cpu s)) 0 in
  Alcotest.(check bool) "more unrolling, more time" true (deeper > t)

let test_per_tech_bus_timing () =
  (* The paper's "more extensive set of annotations": a ts per technology
     and a td per technology pair override the bus defaults. *)
  let s = fixture () in
  let buses =
    Array.map
      (fun b ->
        {
          b with
          Slif.Types.b_ts_by_tech = [ ("tp", 0.5) ];
          b_td_by_pair = [ (("tp", "tm"), 10.0) ];
        })
      s.Slif.Types.buses
  in
  let s = { s with Slif.Types.buses } in
  let part = all_on_cpu s in
  let est = estimator s part in
  (* Same-component transfers on tech tp now cost 0.5 instead of 1.0:
     exectime(b) = 5 + 1*(2*0.5 + 2) = 8. *)
  checkf "ts override" 8.0 (Slif.Estimate.exectime_us est 2);
  (* Move v to memory: the (tp, tm) pair costs 10 instead of td=5:
     exectime(b) = 5 + 1*(2*10 + 3) = 28. *)
  Slif.Partition.assign_node part ~node:1 (Slif.Partition.Cmem 0);
  let est = estimator s part in
  checkf "td pair override" 28.0 (Slif.Estimate.exectime_us est 2);
  (* The pair is unordered: (tm, tp) resolves identically.  Port accesses
     keep the default td. *)
  checkf "port keeps default td" 5.0
    (Slif.Estimate.transfer_time_us est s.Slif.Types.chans.(3))

let test_per_tech_timing_roundtrips () =
  let s = fixture () in
  let buses =
    Array.map
      (fun b ->
        {
          b with
          Slif.Types.b_ts_by_tech = [ ("tp", 0.5); ("ta", 0.25) ];
          b_td_by_pair = [ (("tp", "ta"), 3.0); (("tp", "tm"), 10.0) ];
        })
      s.Slif.Types.buses
  in
  let s = { s with Slif.Types.buses } in
  Alcotest.(check bool) "text round-trip with bus timing tables" true
    (Slif.Text.of_string (Slif.Text.to_string s) = s)

let test_contention_no_capacity_is_plain () =
  let s = fixture () in
  let buses = Array.map (fun b -> { b with Slif.Types.b_capacity_mbps = None }) s.Slif.Types.buses in
  let s = { s with Slif.Types.buses } in
  let est = estimator s (all_on_cpu s) in
  checkf "no capacity, factor 1" 62.0 (Slif.Estimate.exectime_contended_us est 0);
  Alcotest.(check (array (float 1e-9))) "unit factors" [| 1.0 |]
    (Slif.Estimate.bus_slowdowns est)

let test_contention_slows_overcommitted_bus () =
  (* The fixture's bus is capped at 2.0 Mb/s but demand is ~3.96: the
     contended exectime must exceed the plain one, and the slowdown must
     push residual demand to (or under) roughly the capacity. *)
  let s = fixture () in
  let est = estimator s (all_on_cpu s) in
  let plain = Slif.Estimate.exectime_us est 0 in
  let contended = Slif.Estimate.exectime_contended_us est 0 in
  Alcotest.(check bool) "contention slows execution" true (contended > plain);
  let factors = Slif.Estimate.bus_slowdowns est in
  Alcotest.(check bool) "factor exceeds 1" true (factors.(0) > 1.0)

let test_contention_within_capacity_unchanged () =
  let s = fixture () in
  let buses =
    Array.map (fun b -> { b with Slif.Types.b_capacity_mbps = Some 1e9 }) s.Slif.Types.buses
  in
  let s = { s with Slif.Types.buses } in
  let est = estimator s (all_on_cpu s) in
  checkf "huge capacity leaves times unchanged" 62.0
    (Slif.Estimate.exectime_contended_us est 0)

let test_memoization () =
  let s = fixture () in
  let est = estimator s (all_on_cpu s) in
  ignore (Slif.Estimate.exectime_us est 0);
  let q1 = Slif.Estimate.stats_queries est in
  ignore (Slif.Estimate.exectime_us est 0);
  Alcotest.(check bool) "second query hits cache" true (Slif.Estimate.stats_cache_hits est > 0);
  Alcotest.(check int) "one more query" (q1 + 1) (Slif.Estimate.stats_queries est)

let test_cache_invalidation_on_move () =
  let s = fixture () in
  let part = all_on_cpu s in
  let est = estimator s part in
  checkf "before" 62.0 (Slif.Estimate.exectime_us est 0);
  Slif.Partition.assign_node part ~node:1 (Slif.Partition.Cmem 0);
  (* No explicit invalidation: the version check must catch it. *)
  checkf "after move (auto-invalidated)" 107.0 (Slif.Estimate.exectime_us est 0)

let test_incremental_invalidation_matches_full () =
  let s = fixture () in
  let part = all_on_cpu s in
  let est = estimator s part in
  ignore (Slif.Estimate.exectime_us est 0);
  Slif.Partition.assign_node part ~node:1 (Slif.Partition.Cmem 0);
  ignore (Slif.Estimate.note_node_moved est 1);
  let incr = Slif.Estimate.exectime_us est 0 in
  let fresh = Slif.Estimate.exectime_us (estimator s part) 0 in
  checkf "incremental equals fresh" fresh incr

(* Eq. 1 sums a behavior's channel costs as a left fold in ascending
   channel id order, and the printed estimates depend on it: ether's
   [linkmon] on the proc+ASIC allocation's all-software seed partition is
   248.915 in exact arithmetic, the fold gives 248.91500000000002 and
   prints 248.92, a pairwise sum gives 248.91499999999999 and prints
   248.91.  This pins the golden line [linkmon 248.92] of
   slifbench/golden/estimate-ether.txt, so a re-association fails here
   with its cause named. *)
let test_eq1_association_pinned () =
  let spec = Specs.Registry.find_exn "ether" in
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse spec.Specs.Registry.source) in
  let s =
    Specsyn.Alloc.apply
      (Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem))
      (Specsyn.Alloc.proc_asic ())
  in
  let est = Specsyn.Search.estimator (Slif.Graph.make s) (Specsyn.Search.seed_partition s) in
  let linkmon =
    match Slif.Types.node_by_name s "linkmon" with
    | Some n -> n.Slif.Types.n_id
    | None -> Alcotest.fail "ether has no linkmon"
  in
  let v = Slif.Estimate.exectime_us est linkmon in
  if Int64.bits_of_float v <> Int64.bits_of_float 0x1.f1d47ae147ae2p+7 then
    Alcotest.failf "linkmon exectime %h (%.17g), expected 0x1.f1d47ae147ae2p+7" v v;
  Alcotest.(check string) "prints as the golden" "248.92" (Printf.sprintf "%.2f" v)

let suite =
  [
    Alcotest.test_case "eq.1 same-component exectime" `Quick test_exectime_same_component;
    Alcotest.test_case "eq.1 cross-component exectime" `Quick test_exectime_cross_component;
    Alcotest.test_case "variable exectime is its ict" `Quick test_exectime_variable_is_its_ict;
    Alcotest.test_case "bus transfer time" `Quick test_transfer_time;
    Alcotest.test_case "min/avg/max modes" `Quick test_modes;
    Alcotest.test_case "concurrency tags overlap" `Quick test_concurrency_tags;
    Alcotest.test_case "eq.2-3 bitrates" `Quick test_bitrate;
    Alcotest.test_case "eq.4-5 sizes" `Quick test_size;
    Alcotest.test_case "eq.6 io pins" `Quick test_io_pins;
    Alcotest.test_case "missing weight rejected" `Quick test_missing_weight_rejected;
    Alcotest.test_case "partial partition rejected" `Quick test_partial_partition_rejected;
    Alcotest.test_case "recursion detected" `Quick test_recursion_detected;
    Alcotest.test_case "recursion unrolled on request" `Quick test_recursion_unrolled;
    Alcotest.test_case "per-technology bus timing" `Quick test_per_tech_bus_timing;
    Alcotest.test_case "bus timing tables round-trip" `Quick test_per_tech_timing_roundtrips;
    Alcotest.test_case "contention: no capacity" `Quick test_contention_no_capacity_is_plain;
    Alcotest.test_case "contention slows saturated bus" `Quick test_contention_slows_overcommitted_bus;
    Alcotest.test_case "contention: ample capacity" `Quick test_contention_within_capacity_unchanged;
    Alcotest.test_case "memoization" `Quick test_memoization;
    Alcotest.test_case "stale cache auto-invalidates" `Quick test_cache_invalidation_on_move;
    Alcotest.test_case "incremental invalidation correct" `Quick test_incremental_invalidation_matches_full;
    Alcotest.test_case "eq.1 left fold pinned (ether linkmon)" `Quick test_eq1_association_pinned;
  ]
