(* The synthetic graph generator: determinism (across runs and domain
   counts), structural invariants per family, and end-to-end use by the
   estimator and the store. *)

module Synth = Slif_synth.Synth
module Store = Slif_store.Store

let params ?(nodes = 3_000) family = Synth.default_params ~seed:99 ~nodes family

let all_family_params =
  lazy (List.map (fun f -> (Synth.family_to_string f, params f)) Synth.all_families)

(* --- Determinism ------------------------------------------------------------ *)

let test_deterministic_across_runs () =
  List.iter
    (fun (name, p) ->
      let a = Synth.generate p and b = Synth.generate p in
      Alcotest.(check bool) (name ^ ": two runs identical") true (Slif.Types.equal a b))
    (Lazy.force all_family_params)

let test_deterministic_across_jobs () =
  List.iter
    (fun (name, p) ->
      let serial = Synth.generate p in
      List.iter
        (fun jobs ->
          let parallel =
            Slif_util.Pool.with_pool ~jobs (fun pool -> Synth.generate ~pool p)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: -j %d identical to serial" name jobs)
            true
            (Slif.Types.equal serial parallel);
          (* Byte-identical store containers, both formats. *)
          Alcotest.(check string)
            (Printf.sprintf "%s: -j %d v1 bytes identical" name jobs)
            (Store.slif_to_string serial)
            (Store.slif_to_string parallel);
          Alcotest.(check string)
            (Printf.sprintf "%s: -j %d v2 bytes identical" name jobs)
            (Store.slif_to_string ~version:Store.format_version_v2 serial)
            (Store.slif_to_string ~version:Store.format_version_v2 parallel))
        [ 2; 5 ])
    (Lazy.force all_family_params)

let test_seed_changes_graph () =
  let p = params Synth.Mixed in
  let a = Synth.generate p and b = Synth.generate { p with seed = p.Synth.seed + 1 } in
  Alcotest.(check bool) "different seeds differ" false (Slif.Types.equal a b)

(* --- Structural invariants --------------------------------------------------- *)

let test_counts_and_shape () =
  List.iter
    (fun (name, p) ->
      let s = Synth.generate p in
      let nb =
        Array.fold_left
          (fun k n -> if Slif.Types.is_behavior n then k + 1 else k)
          0 s.Slif.Types.nodes
      in
      Alcotest.(check int) (name ^ ": node count") p.Synth.nodes
        (Array.length s.Slif.Types.nodes);
      Array.iteri
        (fun i (n : Slif.Types.node) ->
          if n.Slif.Types.n_id <> i then
            Alcotest.failf "%s: node %d carries id %d" name i n.Slif.Types.n_id;
          let is_b = Slif.Types.is_behavior n in
          if is_b <> (i < nb) then
            Alcotest.failf "%s: node %d kind out of band layout" name i)
        s.Slif.Types.nodes;
      Array.iteri
        (fun i (c : Slif.Types.channel) ->
          if c.Slif.Types.c_id <> i then
            Alcotest.failf "%s: channel %d carries id %d" name i c.Slif.Types.c_id;
          if not (Slif.Types.is_behavior s.Slif.Types.nodes.(c.Slif.Types.c_src)) then
            Alcotest.failf "%s: channel %d source is not a behavior" name i;
          match (c.Slif.Types.c_kind, c.Slif.Types.c_dst) with
          | Slif.Types.Call, Slif.Types.Dnode d ->
              if not (Slif.Types.is_behavior s.Slif.Types.nodes.(d)) then
                Alcotest.failf "%s: call channel %d targets a variable" name i;
              if d <= c.Slif.Types.c_src && d <> 0 then () (* parents precede children *)
          | Slif.Types.Var_access, Slif.Types.Dnode d ->
              if Slif.Types.is_behavior s.Slif.Types.nodes.(d) then
                Alcotest.failf "%s: var access %d targets a behavior" name i
          | _ -> Alcotest.failf "%s: channel %d has unexpected kind/dest" name i)
        s.Slif.Types.chans)
    (Lazy.force all_family_params)

let test_acyclic_and_estimable () =
  List.iter
    (fun (name, p) ->
      let s = Synth.generate p in
      let graph = Slif.Graph.make s in
      Alcotest.(check bool) (name ^ ": call graph acyclic") false
        (Slif.Graph.has_call_cycle graph);
      let part = Specsyn.Search.seed_partition s in
      Alcotest.(check bool) (name ^ ": seed partition proper") true
        (Slif.Validate.is_proper part);
      let est = Specsyn.Search.estimator graph part in
      let t = Slif.Estimate.exectime_us est 0 in
      if not (t > 0.0) then
        Alcotest.failf "%s: root exectime %f not positive" name t)
    (Lazy.force all_family_params)

(* A hostile depth is clamped: generation succeeds and the recursive
   estimator survives the deepest chains the clamp allows. *)
let test_depth_clamp () =
  (* Three times the generator's depth clamp (2048). *)
  let p = { (params ~nodes:(2048 * 3) Synth.Call_tree) with Synth.depth = max_int } in
  let s = Synth.generate p in
  let graph = Slif.Graph.make s in
  let part = Specsyn.Search.seed_partition s in
  let est = Specsyn.Search.estimator graph part in
  ignore (Slif.Estimate.exectime_us est 0)

let test_family_names_roundtrip () =
  List.iter
    (fun f ->
      match Synth.family_of_string (Synth.family_to_string f) with
      | Ok f' when f' = f -> ()
      | Ok _ -> Alcotest.failf "%s parsed to a different family" (Synth.family_to_string f)
      | Error msg -> Alcotest.fail msg)
    Synth.all_families;
  match Synth.family_of_string "no-such-family" with
  | Ok _ -> Alcotest.fail "junk family name accepted"
  | Error _ -> ()

let test_bad_params_rejected () =
  let p = params Synth.Mixed in
  List.iter
    (fun bad ->
      match Synth.generate bad with
      | _ -> Alcotest.fail "invalid params accepted"
      | exception Invalid_argument _ -> ())
    [
      { p with Synth.nodes = 1 };
      { p with Synth.fanout = 0 };
      { p with Synth.sharing = -1 };
      { p with Synth.var_fraction = 1.5 };
    ]

(* The full tentpole path in miniature: synth -> v2 store -> lazy open
   -> decode -> estimate, bit-equal to estimating the original. *)
let test_store_roundtrip_estimates () =
  let p = params ~nodes:2_000 Synth.Shared_vars in
  let s = Synth.generate p in
  let path = Filename.temp_file "slif_synth" ".slifstore" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save_slif ~path ~version:Store.format_version_v2 s;
      let h =
        match Slif_store.Lazy_store.open_file path with
        | Ok h -> h
        | Error err -> Alcotest.failf "open_file: %s" (Store.error_message err)
      in
      let loaded, _prov =
        match Slif_store.Lazy_store.slif h with
        | Ok r -> r
        | Error err -> Alcotest.failf "decode: %s" (Store.error_message err)
      in
      let exectime slif =
        let graph = Slif.Graph.make slif in
        let part = Specsyn.Search.seed_partition slif in
        Slif.Estimate.exectime_us (Specsyn.Search.estimator graph part) 0
      in
      Alcotest.(check (float 0.0))
        "estimates bit-equal through the store" (exectime s) (exectime loaded))

let suite =
  [
    Alcotest.test_case "deterministic across runs" `Quick test_deterministic_across_runs;
    Alcotest.test_case "deterministic across jobs" `Quick test_deterministic_across_jobs;
    Alcotest.test_case "seed changes the graph" `Quick test_seed_changes_graph;
    Alcotest.test_case "counts and shape" `Quick test_counts_and_shape;
    Alcotest.test_case "acyclic and estimable" `Quick test_acyclic_and_estimable;
    Alcotest.test_case "depth clamp" `Quick test_depth_clamp;
    Alcotest.test_case "family names round-trip" `Quick test_family_names_roundtrip;
    Alcotest.test_case "bad params rejected" `Quick test_bad_params_rejected;
    Alcotest.test_case "store round-trip estimates" `Quick test_store_roundtrip_estimates;
  ]
