(* End-to-end runs over the four bundled benchmark specifications. *)

let pipelines =
  lazy
    (List.map
       (fun (spec : Specs.Registry.spec) ->
         let design = Vhdl.Parser.parse spec.source in
         let sem = Vhdl.Sem.build design in
         let slif = Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem) in
         (spec, design, sem, slif))
       Specs.Registry.all)

let test_all_specs_parse_and_build () =
  List.iter
    (fun ((spec : Specs.Registry.spec), _, _, slif) ->
      let stats = Slif.Stats.of_slif slif in
      Alcotest.(check bool) (spec.spec_name ^ " has nodes") true (stats.Slif.Stats.bv > 10);
      Alcotest.(check bool) (spec.spec_name ^ " has channels") true
        (stats.Slif.Stats.channels > 10))
    (Lazy.force pipelines)

let test_bv_counts_track_paper () =
  (* Within 2x of the paper's BV column — the scale, not the digits —
     and the same ordering across examples (vol < fuzzy < ans < ether). *)
  List.iter
    (fun ((spec : Specs.Registry.spec), _, _, slif) ->
      let stats = Slif.Stats.of_slif slif in
      let ratio = float_of_int stats.Slif.Stats.bv /. float_of_int spec.paper_bv in
      Alcotest.(check bool)
        (Printf.sprintf "%s BV %d vs paper %d" spec.spec_name stats.Slif.Stats.bv spec.paper_bv)
        true
        (ratio > 0.5 && ratio < 2.0))
    (Lazy.force pipelines);
  let bv name =
    let _, _, _, slif =
      List.find (fun ((s : Specs.Registry.spec), _, _, _) -> s.spec_name = name)
        (Lazy.force pipelines)
    in
    (Slif.Stats.of_slif slif).Slif.Stats.bv
  in
  Alcotest.(check bool) "vol < fuzzy < ans < ether (paper ordering)" true
    (bv "vol" < bv "fuzzy" && bv "fuzzy" < bv "ans" && bv "ans" < bv "ether")

let test_every_node_annotated () =
  List.iter
    (fun ((spec : Specs.Registry.spec), _, _, slif) ->
      Array.iter
        (fun (n : Slif.Types.node) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s has cpu32 size" spec.spec_name n.n_name)
            true
            (Slif.Types.size_on n "cpu32" <> None);
          if Slif.Types.is_behavior n then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s has asic ict" spec.spec_name n.n_name)
              true
              (Slif.Types.ict_on n "asic_gal" <> None))
        slif.Slif.Types.nodes)
    (Lazy.force pipelines)

let test_weights_positive_and_finite () =
  List.iter
    (fun ((spec : Specs.Registry.spec), _, _, slif) ->
      Array.iter
        (fun (n : Slif.Types.node) ->
          List.iter
            (fun (tech, v) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s ict on %s sane" spec.spec_name n.n_name tech)
                true
                (Float.is_finite v && v >= 0.0))
            n.n_ict;
          List.iter
            (fun (tech, v) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s size on %s sane" spec.spec_name n.n_name tech)
                true
                (Float.is_finite v && v > 0.0))
            n.n_size)
        slif.Slif.Types.nodes)
    (Lazy.force pipelines)

let test_channel_invariants () =
  List.iter
    (fun ((spec : Specs.Registry.spec), _, _, slif) ->
      Array.iter
        (fun (c : Slif.Types.channel) ->
          Alcotest.(check bool) (spec.spec_name ^ " freq ordering") true
            (c.c_accfreq_min <= c.c_accfreq +. 1e-9
            && c.c_accfreq <= c.c_accfreq_max +. 1e-9);
          Alcotest.(check bool) (spec.spec_name ^ " bits non-negative") true (c.c_bits >= 0);
          (* Zero bits only for parameterless-procedure control transfers. *)
          Alcotest.(check bool) (spec.spec_name ^ " zero bits only on calls") true
            (c.c_bits > 0 || c.c_kind = Slif.Types.Call);
          Alcotest.(check bool) (spec.spec_name ^ " src is a behavior") true
            (Slif.Types.is_behavior slif.Slif.Types.nodes.(c.c_src)))
        slif.Slif.Types.chans)
    (Lazy.force pipelines)

let test_exectimes_finite_under_seed_partition () =
  List.iter
    (fun ((spec : Specs.Registry.spec), _, _, slif) ->
      let s = Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic ()) in
      let graph = Slif.Graph.make s in
      let part = Specsyn.Search.seed_partition s in
      let est = Specsyn.Search.estimator graph part in
      Array.iter
        (fun (n : Slif.Types.node) ->
          if Slif.Types.is_process n then begin
            let t = Slif.Estimate.exectime_us est n.n_id in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s exectime" spec.spec_name n.n_name)
              true
              (Float.is_finite t && t > 0.0)
          end)
        s.Slif.Types.nodes)
    (Lazy.force pipelines)

let test_no_call_cycles_in_specs () =
  List.iter
    (fun ((spec : Specs.Registry.spec), _, _, slif) ->
      Alcotest.(check bool) (spec.spec_name ^ " acyclic") false
        (Slif.Graph.has_call_cycle (Slif.Graph.make slif)))
    (Lazy.force pipelines)

let test_estimation_much_faster_than_build () =
  (* The headline claim: per-partition estimation costs orders of magnitude
     less than building/preprocessing the SLIF. *)
  let spec = Specs.Registry.find_exn "ether" in
  let build () =
    let sem = Vhdl.Sem.build (Vhdl.Parser.parse spec.source) in
    Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem)
  in
  let slif, t_build = Slif_obs.Clock.time build in
  let s = Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic ()) in
  let graph = Slif.Graph.make s in
  let part = Specsyn.Search.seed_partition s in
  let t_est =
    Slif_obs.Clock.time_n 50 (fun () ->
        let est = Specsyn.Search.estimator graph part in
        Array.iter
          (fun (n : Slif.Types.node) ->
            if Slif.Types.is_process n then ignore (Slif.Estimate.exectime_us est n.n_id))
          s.Slif.Types.nodes;
        ignore (Slif.Estimate.size est (Slif.Partition.Cproc 0)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate (%.6fs) at least 3x cheaper than build (%.6fs)" t_est t_build)
    true
    (t_est *. 3.0 < t_build)

let test_asic_speeds_up_datapath_behaviors () =
  (* Figure 3's shape: the convolution-style behaviors run faster as
     custom hardware than as software. *)
  let _, _, _, slif =
    List.find
      (fun ((s : Specs.Registry.spec), _, _, _) -> s.spec_name = "fuzzy")
      (Lazy.force pipelines)
  in
  List.iter
    (fun name ->
      match Slif.Types.node_by_name slif name with
      | Some n ->
          let cpu = Option.value (Slif.Types.ict_on n "cpu32") ~default:0.0 in
          let asic = Option.value (Slif.Types.ict_on n "asic_gal") ~default:infinity in
          Alcotest.(check bool) (name ^ ": asic ict < cpu ict") true (asic < cpu)
      | None -> Alcotest.fail (name ^ " missing"))
    [ "evaluate_rule"; "convolve"; "compute_centroid" ]

let test_dot_export_renders () =
  List.iter
    (fun ((spec : Specs.Registry.spec), _, _, slif) ->
      let dot = Slif.Dot.to_dot ~annotations:true slif in
      Alcotest.(check bool) (spec.spec_name ^ " dot nonempty") true (String.length dot > 100);
      Alcotest.(check bool) (spec.spec_name ^ " digraph header") true
        (String.sub dot 0 7 = "digraph"))
    (Lazy.force pipelines)

let test_dot_with_partition_clusters () =
  let _, _, _, slif = List.hd (Lazy.force pipelines) in
  let s = Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic ()) in
  let part = Specsyn.Search.seed_partition s in
  let dot = Slif.Dot.to_dot ~partition:part s in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "has clusters" true (contains "subgraph cluster_" dot)

let test_profile_changes_estimates () =
  (* Profiling is wired through: forcing a branch probability changes the
     computed access frequencies. *)
  let spec = Specs.Registry.find_exn "fuzzy" in
  let build profile =
    let sem = Vhdl.Sem.build (Vhdl.Parser.parse spec.source) in
    Slif.Build.build ~profile sem
  in
  let base = build Flow.Profile.empty in
  let skewed =
    build (Flow.Profile.set_branch Flow.Profile.empty ~behavior:"fuzzymain" ~site:0 ~arm:0 1.0)
  in
  let total_freq (s : Slif.Types.t) =
    Array.fold_left (fun acc (c : Slif.Types.channel) -> acc +. c.c_accfreq) 0.0 s.chans
  in
  Alcotest.(check bool) "frequencies move with the profile" true
    (abs_float (total_freq base -. total_freq skewed) > 1e-6)

(* A non-empty profile, pinned bitwise: ether under the fixed profile
   [golden/ether.profile], every ict, size and channel frequency printed
   with %h.  The empty profile is pinned by the slifbench goldens; this
   pins the profiled path through Count, Census and Build, where float
   sums depend on the order of their terms. *)
let render_weights (s : Slif.Types.t) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (n : Slif.Types.node) ->
      List.iter (fun (t, v) -> Printf.bprintf b "ict %s %s %h\n" n.n_name t v) n.n_ict;
      List.iter (fun (t, v) -> Printf.bprintf b "size %s %s %h\n" n.n_name t v) n.n_size)
    s.nodes;
  Array.iter
    (fun (c : Slif.Types.channel) ->
      Printf.bprintf b "chan %d %h %h %h %d\n" c.c_id c.c_accfreq c.c_accfreq_min
        c.c_accfreq_max c.c_bits)
    s.chans;
  Buffer.contents b

let test_profiled_ether_golden () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let profile = Flow.Profile.of_string (read "golden/ether.profile") in
  let spec = Specs.Registry.find_exn "ether" in
  let sem = Vhdl.Sem.build (Vhdl.Parser.parse spec.source) in
  let slif = Slif.Build.build ~profile sem in
  let got = render_weights (Slif.Annotate.run ~profile ~techs:Tech.Parts.all sem slif) in
  let want = read "golden/ether_profiled.txt" in
  (* Report the first differing line, not two 2,700-line texts. *)
  let rec first i = function
    | x :: xs, y :: ys when x = y -> first (i + 1) (xs, ys)
    | x :: _, y :: _ -> Alcotest.failf "line %d: got %S, want %S" i x y
    | [], [] -> ()
    | _ -> Alcotest.failf "line %d: one text ends early" i
  in
  first 1 (String.split_on_char '\n' got, String.split_on_char '\n' want)

let suite =
  [
    Alcotest.test_case "all specs parse and build" `Quick test_all_specs_parse_and_build;
    Alcotest.test_case "BV counts track the paper" `Quick test_bv_counts_track_paper;
    Alcotest.test_case "every node annotated" `Quick test_every_node_annotated;
    Alcotest.test_case "weights positive and finite" `Quick test_weights_positive_and_finite;
    Alcotest.test_case "channel invariants" `Quick test_channel_invariants;
    Alcotest.test_case "process exectimes finite" `Quick test_exectimes_finite_under_seed_partition;
    Alcotest.test_case "benchmark specs are call-acyclic" `Quick test_no_call_cycles_in_specs;
    Alcotest.test_case "estimation cheaper than build" `Slow test_estimation_much_faster_than_build;
    Alcotest.test_case "asic accelerates datapath behaviors" `Quick test_asic_speeds_up_datapath_behaviors;
    Alcotest.test_case "dot export renders" `Quick test_dot_export_renders;
    Alcotest.test_case "dot partition clusters" `Quick test_dot_with_partition_clusters;
    Alcotest.test_case "profile changes estimates" `Quick test_profile_changes_estimates;
    Alcotest.test_case "profiled ether weights match golden" `Quick test_profiled_ether_golden;
  ]
