(* Property-based tests over randomly generated access graphs. *)

open QCheck

(* --- Random SLIF generator ------------------------------------------------

   Generates an annotated SLIF with [nb] behaviors (node 0 is a process),
   [nv] variables, acyclic call channels (src < dst among behaviors), and
   var/port channels; two processors sharing one technology "tp", a second
   technology "ta", one memory "tm", and one bus.  All weights positive. *)

type gslif = { slif : Slif.Types.t; seed : int }

let mk_node id name kind ict size =
  { Slif.Types.n_id = id; n_name = name; n_kind = kind; n_ict = ict; n_size = size }

let gen_slif_of_seed seed =
  let rng = Slif_util.Prng.create seed in
  let nb = 2 + Slif_util.Prng.int rng 5 in
  let nv = 1 + Slif_util.Prng.int rng 5 in
  let fl lo hi = lo +. Slif_util.Prng.float rng (hi -. lo) in
  let behaviors =
    List.init nb (fun i ->
        mk_node i (Printf.sprintf "b%d" i)
          (Slif.Types.Behavior { is_process = i = 0 })
          [ ("tp", fl 1.0 20.0); ("ta", fl 0.5 10.0) ]
          [ ("tp", fl 10.0 200.0); ("ta", fl 50.0 900.0) ])
  in
  let variables =
    List.init nv (fun i ->
        let bits = 1 + Slif_util.Prng.int rng 64 in
        mk_node (nb + i)
          (Printf.sprintf "v%d" i)
          (Slif.Types.Variable { storage_bits = bits * 4; transfer_bits = bits })
          [ ("tp", fl 0.1 2.0); ("ta", fl 0.1 2.0); ("tm", fl 0.1 4.0) ]
          [ ("tp", fl 1.0 50.0); ("ta", fl 8.0 300.0); ("tm", fl 1.0 20.0) ])
  in
  let nodes = Array.of_list (behaviors @ variables) in
  let ports = [| { Slif.Types.pt_id = 0; pt_name = "p0"; pt_bits = 8; pt_dir = Slif.Types.Pout } |] in
  let chans = ref [] in
  let next_id = ref 0 in
  let add_chan src dst bits kind =
    let avg = fl 0.5 8.0 in
    let c =
      {
        Slif.Types.c_id = !next_id;
        c_src = src;
        c_dst = dst;
        c_accfreq = avg;
        c_accfreq_min = avg *. fl 0.1 1.0;
        c_accfreq_max = avg *. (1.0 +. fl 0.0 2.0);
        c_bits = bits;
        c_tag = None;
        c_kind = kind;
      }
    in
    incr next_id;
    chans := c :: !chans
  in
  (* Acyclic calls: each behavior may call higher-numbered behaviors. *)
  for src = 0 to nb - 2 do
    let n_calls = Slif_util.Prng.int rng 3 in
    for _ = 1 to n_calls do
      let dst = src + 1 + Slif_util.Prng.int rng (nb - src - 1) in
      add_chan src (Slif.Types.Dnode dst) (8 + Slif_util.Prng.int rng 24) Slif.Types.Call
    done
  done;
  (* Variable accesses. *)
  for src = 0 to nb - 1 do
    let n_acc = 1 + Slif_util.Prng.int rng 3 in
    for _ = 1 to n_acc do
      let v = nb + Slif_util.Prng.int rng nv in
      let bits =
        match nodes.(v).Slif.Types.n_kind with
        | Slif.Types.Variable { transfer_bits; _ } -> transfer_bits
        | _ -> 8
      in
      add_chan src (Slif.Types.Dnode v) bits Slif.Types.Var_access
    done
  done;
  (* The process touches the port. *)
  add_chan 0 (Slif.Types.Dport 0) 8 Slif.Types.Port_access;
  let chans = Array.of_list (List.rev !chans) in
  let procs =
    [|
      { Slif.Types.p_id = 0; p_name = "cpu0"; p_kind = Slif.Types.Standard; p_tech = "tp";
        p_size_constraint = None; p_io_constraint = None };
      { Slif.Types.p_id = 1; p_name = "cpu1"; p_kind = Slif.Types.Standard; p_tech = "tp";
        p_size_constraint = None; p_io_constraint = None };
      { Slif.Types.p_id = 2; p_name = "hw"; p_kind = Slif.Types.Custom; p_tech = "ta";
        p_size_constraint = None; p_io_constraint = None };
    |]
  in
  let mems =
    [| { Slif.Types.m_id = 0; m_name = "ram"; m_tech = "tm"; m_size_constraint = None } |]
  in
  let buses =
    [|
      { Slif.Types.b_id = 0; b_name = "bus"; b_bitwidth = 16; b_ts_us = 0.5; b_td_us = 2.5;
        b_capacity_mbps = None; b_ts_by_tech = []; b_td_by_pair = [] };
    |]
  in
  {
    slif =
      { Slif.Types.design_name = Printf.sprintf "gen%d" seed; nodes; ports; chans; procs;
        mems; buses };
    seed;
  }

let arb_slif =
  make ~print:(fun g -> Printf.sprintf "seed=%d\n%s" g.seed (Slif.Text.to_string g.slif))
    (Gen.map gen_slif_of_seed Gen.nat)

let random_partition ?(mems_allowed = true) rng (s : Slif.Types.t) =
  let part = Slif.Partition.create s in
  Array.iteri
    (fun i (n : Slif.Types.node) ->
      let comp =
        if Slif.Types.is_behavior n || not mems_allowed then
          Slif.Partition.Cproc (Slif_util.Prng.int rng (Array.length s.procs))
        else if Slif_util.Prng.int rng 4 = 0 then Slif.Partition.Cmem 0
        else Slif.Partition.Cproc (Slif_util.Prng.int rng (Array.length s.procs))
      in
      Slif.Partition.assign_node part ~node:i comp)
    s.nodes;
  Slif.Partition.assign_all_chans part ~bus:0;
  part

(* --- Properties ------------------------------------------------------------

   The core invariants are named predicates so the regression corpus
   (test/corpus/props.seed, replayed by [test_corpus_replay] before the
   generative pass) can re-run them on stored seeds. *)

let check_text_roundtrip g = Slif.Text.of_string (Slif.Text.to_string g.slif) = g.slif

let check_random_partition_proper g =
  let rng = Slif_util.Prng.create (g.seed + 1) in
  Slif.Validate.is_proper (random_partition rng g.slif)

let prop_text_roundtrip =
  Test.make ~name:"Text.of_string (to_string s) = s" ~count:100 arb_slif
    check_text_roundtrip

let prop_random_partition_proper =
  Test.make ~name:"random partitions are proper" ~count:100 arb_slif
    check_random_partition_proper

let check_min_le_avg_le_max g =
  let rng = Slif_util.Prng.create (g.seed + 2) in
  let part = random_partition rng g.slif in
  let graph = Slif.Graph.make g.slif in
  let avg = Slif.Estimate.exectime_us (Slif.Estimate.create graph part) 0 in
  let mn =
    Slif.Estimate.exectime_us (Slif.Estimate.create ~mode:Slif.Estimate.Min graph part) 0
  in
  let mx =
    Slif.Estimate.exectime_us (Slif.Estimate.create ~mode:Slif.Estimate.Max graph part) 0
  in
  mn <= avg +. 1e-9 && avg <= mx +. 1e-9

let prop_min_le_avg_le_max =
  Test.make ~name:"min <= avg <= max exectime" ~count:100 arb_slif check_min_le_avg_le_max

let prop_exectime_positive =
  Test.make ~name:"exectime exceeds own ict" ~count:100 arb_slif (fun g ->
      let rng = Slif_util.Prng.create (g.seed + 3) in
      let part = random_partition rng g.slif in
      let graph = Slif.Graph.make g.slif in
      let est = Slif.Estimate.create graph part in
      Array.for_all
        (fun (n : Slif.Types.node) ->
          not (Slif.Types.is_behavior n)
          ||
          let tech = Slif.Partition.comp_tech g.slif (Slif.Partition.comp_of_exn part n.n_id) in
          let ict = Option.value (Slif.Types.ict_on n tech) ~default:0.0 in
          Slif.Estimate.exectime_us est n.n_id >= ict -. 1e-9)
        g.slif.Slif.Types.nodes)

let prop_same_tech_placement_invariant_when_ts_eq_td =
  Test.make ~name:"with ts=td, exectime ignores placement across same-tech processors"
    ~count:60 arb_slif (fun g ->
      let buses =
        Array.map (fun b -> { b with Slif.Types.b_td_us = b.Slif.Types.b_ts_us }) g.slif.Slif.Types.buses
      in
      let s = { g.slif with Slif.Types.buses } in
      let graph = Slif.Graph.make s in
      (* Everything on cpu0 vs a random split between cpu0/cpu1 (same tech,
         variables included, no memory). *)
      let part0 = Slif.Partition.create s in
      Array.iteri
        (fun i _ -> Slif.Partition.assign_node part0 ~node:i (Slif.Partition.Cproc 0))
        s.Slif.Types.nodes;
      Slif.Partition.assign_all_chans part0 ~bus:0;
      let rng = Slif_util.Prng.create (g.seed + 4) in
      let part1 = Slif.Partition.create s in
      Array.iteri
        (fun i _ ->
          Slif.Partition.assign_node part1 ~node:i
            (Slif.Partition.Cproc (Slif_util.Prng.int rng 2)))
        s.Slif.Types.nodes;
      Slif.Partition.assign_all_chans part1 ~bus:0;
      let t0 = Slif.Estimate.exectime_us (Slif.Estimate.create graph part0) 0 in
      let t1 = Slif.Estimate.exectime_us (Slif.Estimate.create graph part1) 0 in
      abs_float (t0 -. t1) < 1e-6 *. (1.0 +. abs_float t0))

let prop_size_conserved_by_moves =
  Test.make ~name:"moving a node conserves total same-tech size" ~count:100 arb_slif
    (fun g ->
      let rng = Slif_util.Prng.create (g.seed + 5) in
      (* cpu0 and cpu1 share technology tp: moving any node between them
         keeps the sum of their sizes constant. *)
      let part = Slif.Partition.create g.slif in
      Array.iteri
        (fun i _ ->
          Slif.Partition.assign_node part ~node:i
            (Slif.Partition.Cproc (Slif_util.Prng.int rng 2)))
        g.slif.Slif.Types.nodes;
      Slif.Partition.assign_all_chans part ~bus:0;
      let graph = Slif.Graph.make g.slif in
      let est = Slif.Estimate.create graph part in
      let total () =
        Slif.Estimate.size est (Slif.Partition.Cproc 0)
        +. Slif.Estimate.size est (Slif.Partition.Cproc 1)
      in
      let before = total () in
      let node = Slif_util.Prng.int rng (Array.length g.slif.Slif.Types.nodes) in
      let target =
        match Slif.Partition.comp_of_exn part node with
        | Slif.Partition.Cproc 0 -> Slif.Partition.Cproc 1
        | _ -> Slif.Partition.Cproc 0
      in
      Slif.Partition.assign_node part ~node target;
      abs_float (total () -. before) < 1e-6)

let prop_io_zero_when_colocated =
  Test.make ~name:"io = 0 for a component holding everything but ports" ~count:100 arb_slif
    (fun g ->
      (* Without the port channel, everything on one component has no cut. *)
      let chans =
        Array.of_list
          (Array.to_list g.slif.Slif.Types.chans
          |> List.filter (fun (c : Slif.Types.channel) ->
                 match c.c_dst with Slif.Types.Dport _ -> false | _ -> true))
      in
      let chans = Array.mapi (fun i c -> { c with Slif.Types.c_id = i }) chans in
      let s = { g.slif with Slif.Types.chans } in
      let part = Slif.Partition.create s in
      Array.iteri
        (fun i _ -> Slif.Partition.assign_node part ~node:i (Slif.Partition.Cproc 0))
        s.Slif.Types.nodes;
      Slif.Partition.assign_all_chans part ~bus:0;
      let est = Slif.Estimate.create (Slif.Graph.make s) part in
      Slif.Estimate.io_pins est (Slif.Partition.Cproc 0) = 0)

let prop_incremental_matches_full =
  Test.make ~name:"incremental invalidation equals fresh estimation" ~count:60 arb_slif
    (fun g ->
      let rng = Slif_util.Prng.create (g.seed + 6) in
      let part = random_partition rng g.slif in
      let graph = Slif.Graph.make g.slif in
      let est = Slif.Estimate.create graph part in
      ignore (Slif.Estimate.exectime_us est 0);
      (* Random sequence of moves, each followed by note_node_moved. *)
      let ok = ref true in
      for _ = 1 to 5 do
        let node = Slif_util.Prng.int rng (Array.length g.slif.Slif.Types.nodes) in
        let comp =
          if Slif.Types.is_behavior g.slif.Slif.Types.nodes.(node) then
            Slif.Partition.Cproc (Slif_util.Prng.int rng 3)
          else Slif.Partition.Cmem 0
        in
        Slif.Partition.assign_node part ~node comp;
        ignore (Slif.Estimate.note_node_moved est node);
        let incr = Slif.Estimate.exectime_us est 0 in
        let fresh = Slif.Estimate.exectime_us (Slif.Estimate.create graph part) 0 in
        if Int64.bits_of_float incr <> Int64.bits_of_float fresh then ok := false
      done;
      !ok)

let prop_bus_bitrate_is_sum =
  Test.make ~name:"bus bitrate equals sum of channel bitrates" ~count:60 arb_slif (fun g ->
      let rng = Slif_util.Prng.create (g.seed + 7) in
      let part = random_partition rng g.slif in
      let est = Slif.Estimate.create (Slif.Graph.make g.slif) part in
      let by_sum =
        Array.fold_left
          (fun acc c -> acc +. Slif.Estimate.chan_bitrate_mbps est c)
          0.0 g.slif.Slif.Types.chans
      in
      abs_float (by_sum -. Slif.Estimate.bus_bitrate_mbps est 0)
      < 1e-6 *. (1.0 +. abs_float by_sum))

(* Node moves and channel re-bussings, interleaved on a two-bus variant
   of the generated SLIF: after each step, with every cache warm, each
   node's execution time and each bus's bitrate equal a fresh
   estimator's, bit for bit. *)
let prop_incremental_moves_match_fresh =
  Test.make ~name:"node and channel moves: incremental equals fresh, bitwise" ~count:60
    arb_slif (fun g ->
      let bus0 = g.slif.Slif.Types.buses.(0) in
      let bus1 =
        { bus0 with Slif.Types.b_id = 1; b_name = "bus1"; b_bitwidth = 8; b_ts_us = 0.25;
          b_td_us = 4.0 }
      in
      let s = { g.slif with Slif.Types.buses = [| bus0; bus1 |] } in
      let rng = Slif_util.Prng.create (g.seed + 11) in
      let part = random_partition rng s in
      let n_chans = Array.length s.Slif.Types.chans in
      for c = 0 to n_chans - 1 do
        Slif.Partition.assign_chan part ~chan:c ~bus:(Slif_util.Prng.int rng 2)
      done;
      let graph = Slif.Graph.make s in
      let est = Slif.Estimate.create graph part in
      let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
      let agrees () =
        let fresh = Slif.Estimate.create graph part in
        let nodes_ok = ref true in
        Array.iteri
          (fun i _ ->
            if not (same (Slif.Estimate.exectime_us est i) (Slif.Estimate.exectime_us fresh i))
            then nodes_ok := false)
          s.Slif.Types.nodes;
        !nodes_ok
        && same (Slif.Estimate.bus_bitrate_mbps est 0) (Slif.Estimate.bus_bitrate_mbps fresh 0)
        && same (Slif.Estimate.bus_bitrate_mbps est 1) (Slif.Estimate.bus_bitrate_mbps fresh 1)
      in
      let ok = ref (agrees ()) in
      for _ = 1 to 8 do
        if Slif_util.Prng.bool rng then begin
          let node = Slif_util.Prng.int rng (Array.length s.Slif.Types.nodes) in
          let comp =
            if Slif.Types.is_behavior s.Slif.Types.nodes.(node) then
              Slif.Partition.Cproc (Slif_util.Prng.int rng 3)
            else Slif.Partition.Cmem 0
          in
          Slif.Partition.assign_node part ~node comp;
          ignore (Slif.Estimate.note_node_moved est node)
        end
        else begin
          let chan = Slif_util.Prng.int rng n_chans in
          Slif.Partition.assign_chan part ~chan ~bus:(Slif_util.Prng.int rng 2);
          ignore (Slif.Estimate.note_chan_moved est chan)
        end;
        if not (agrees ()) then ok := false
      done;
      !ok)

let prop_bits_for_range_brute_force =
  Test.make ~name:"bits_for_range covers every value in range" ~count:200
    (pair (int_range (-300) 300) (int_range 0 300))
    (fun (lo, span) ->
      let hi = lo + span in
      let bits = Slif_util.Bitmath.bits_for_range ~lo ~hi in
      let representable =
        if lo >= 0 then float_of_int hi < Float.pow 2.0 (float_of_int bits)
        else
          float_of_int hi < Float.pow 2.0 (float_of_int (bits - 1))
          && float_of_int lo >= -.Float.pow 2.0 (float_of_int (bits - 1))
      in
      representable)

let prop_prng_int_bounds =
  Test.make ~name:"prng int stays in bounds" ~count:200
    (pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Slif_util.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Slif_util.Prng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_transform_merge_conserves_weights =
  Test.make ~name:"process merge conserves total ict/size" ~count:60 arb_slif (fun g ->
      (* Merge requires two processes; promote b1 to a process for the test. *)
      let nodes =
        Array.map
          (fun (n : Slif.Types.node) ->
            if n.n_id = 1 then { n with Slif.Types.n_kind = Slif.Types.Behavior { is_process = true } }
            else n)
          g.slif.Slif.Types.nodes
      in
      let s = { g.slif with Slif.Types.nodes } in
      let sum_weights (slif : Slif.Types.t) tech =
        Array.fold_left
          (fun acc (n : Slif.Types.node) ->
            acc +. Option.value (Slif.Types.ict_on n tech) ~default:0.0)
          0.0 slif.Slif.Types.nodes
      in
      let before = sum_weights s "tp" in
      let merged = Specsyn.Transform.merge_processes s "b0" "b1" in
      let after = sum_weights merged "tp" in
      abs_float (before -. after) < 1e-9 *. (1.0 +. abs_float before))

(* Stored regression seeds run first: any seed that once broke a property
   is pinned in test/corpus/props.seed and replayed deterministically
   before the generative pass draws fresh ones. *)
let test_corpus_replay () =
  Helpers.replay_corpus "props" (fun seed ->
      let g = gen_slif_of_seed seed in
      List.iter
        (fun (label, check) ->
          if not (check g) then Alcotest.failf "%s violated by seed %d" label seed)
        [
          ("text roundtrip", check_text_roundtrip);
          ("random partitions proper", check_random_partition_proper);
          ("min <= avg <= max exectime", check_min_le_avg_le_max);
        ])

let suite =
  (* A fixed random state keeps the generated corpus identical run to run. *)
  Alcotest.test_case "corpus seeds replay clean" `Quick test_corpus_replay
  :: List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19941995 |]))
    [
      prop_text_roundtrip;
      prop_random_partition_proper;
      prop_min_le_avg_le_max;
      prop_exectime_positive;
      prop_same_tech_placement_invariant_when_ts_eq_td;
      prop_size_conserved_by_moves;
      prop_io_zero_when_colocated;
      prop_incremental_matches_full;
      prop_bus_bitrate_is_sum;
      prop_bits_for_range_brute_force;
      prop_prng_int_bounds;
      prop_transform_merge_conserves_weights;
      prop_incremental_moves_match_fresh;
    ]
