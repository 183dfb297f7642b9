(* The first token alone tells a SpecCharts text from a VHDL one. *)
let parse_any source =
  match Vhdl.Lexer.next (Vhdl.Lexer.create source) with
  | Vhdl.Token.Ident "spec" ->
      Spc.Lower.design_of_spec (Spc.Parser.parse source)
  | _ -> Vhdl.Parser.parse source

let build_annotated ?profile source =
  let design = parse_any source in
  let sem = Vhdl.Sem.build design in
  let slif = Slif.Build.build ?profile sem in
  Slif.Annotate.run ?profile ~techs:Tech.Parts.all sem slif

let annotated ?cache_dir ?profile_text source =
  let profile = Option.map Flow.Profile.of_string profile_text in
  let build () = build_annotated ?profile source in
  match cache_dir with
  | None -> build ()
  | Some dir ->
      fst (Slif_store.Cache.load_or_build ~dir ~source ?profile:profile_text ~build ())

let algo_of_string = function
  | "random" -> Ok (Specsyn.Explore.Random 200)
  | "greedy" -> Ok Specsyn.Explore.Greedy
  | "gm" | "group-migration" -> Ok Specsyn.Explore.Group_migration
  | "sa" | "annealing" -> Ok (Specsyn.Explore.Annealing Specsyn.Annealing.default_params)
  | "cluster" | "clustering" -> Ok (Specsyn.Explore.Clustering 4)
  | s -> Error (Printf.sprintf "unknown algorithm %S" s)

let run_algo algo problem =
  match algo with
  | Specsyn.Explore.Random restarts -> Specsyn.Random_part.run ~restarts problem
  | Specsyn.Explore.Greedy -> Specsyn.Greedy.run problem
  | Specsyn.Explore.Group_migration -> Specsyn.Group_migration.run problem
  | Specsyn.Explore.Annealing params -> Specsyn.Annealing.run ~params problem
  | Specsyn.Explore.Clustering k -> Specsyn.Cluster.run ~k problem

let parse_deadline spec =
  match String.split_on_char '=' spec with
  | [ name; us ] -> (
      match float_of_string_opt us with
      | Some v -> Ok (name, v)
      | None -> Error (Printf.sprintf "bad deadline %S (expected name=microseconds)" spec))
  | _ -> Error (Printf.sprintf "bad deadline %S (expected name=microseconds)" spec)

let constraints_of_deadlines deadlines = { Specsyn.Cost.deadlines_us = deadlines }

let apply_proc_asic slif = Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic ())

let build_stats_output (slif : Slif.Types.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %s\n" slif.Slif.Types.design_name
       (Slif.Stats.to_string (Slif.Stats.of_slif slif)));
  Array.iter
    (fun (n : Slif.Types.node) ->
      let kind =
        match n.n_kind with
        | Slif.Types.Behavior { is_process = true } -> "process "
        | Slif.Types.Behavior _ -> "behavior"
        | Slif.Types.Variable _ -> "variable"
      in
      Buffer.add_string buf (Printf.sprintf "  %-8s %s\n" kind n.n_name))
    slif.Slif.Types.nodes;
  Buffer.contents buf

let estimate_output ?(bounds = false) slif =
  let s = apply_proc_asic slif in
  let graph = Slif.Graph.make s in
  let part = Specsyn.Search.seed_partition s in
  let est = Specsyn.Search.estimator graph part in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "all-software partition (everything on the cpu):\n";
  Buffer.add_string buf (Specsyn.Report.partition_report est);
  Buffer.add_char buf '\n';
  if bounds then begin
    (* The paper's min/max access-frequency extension: best- and
       worst-case execution times alongside the average. *)
    let est_min = Slif.Estimate.create ~mode:Slif.Estimate.Min ~recursion_depth:4 graph part in
    let est_max = Slif.Estimate.create ~mode:Slif.Estimate.Max ~recursion_depth:4 graph part in
    let table =
      Slif_util.Table.create ~header:[ "process"; "min(us)"; "avg(us)"; "max(us)" ]
    in
    Array.iter
      (fun (n : Slif.Types.node) ->
        if Slif.Types.is_process n then
          Slif_util.Table.add_row table
            [
              n.n_name;
              Printf.sprintf "%.2f" (Slif.Estimate.exectime_us est_min n.n_id);
              Printf.sprintf "%.2f" (Slif.Estimate.exectime_us est n.n_id);
              Printf.sprintf "%.2f" (Slif.Estimate.exectime_us est_max n.n_id);
            ])
      s.Slif.Types.nodes;
    Buffer.add_string buf "\nexecution-time bounds (min / avg / max access frequencies):\n";
    Buffer.add_string buf (Slif_util.Table.render table);
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let partition_output ~algo ~constraints slif =
  let s = apply_proc_asic slif in
  let graph = Slif.Graph.make s in
  let problem = Specsyn.Search.problem ~constraints graph in
  let solution = run_algo algo problem in
  let est = Specsyn.Search.estimator graph solution.Specsyn.Search.part in
  let header =
    Printf.sprintf "algorithm=%s cost=%.4f partitions-evaluated=%d\n"
      (Specsyn.Explore.algo_name algo) solution.Specsyn.Search.cost
      solution.Specsyn.Search.evaluated
  in
  ( header ^ "\n" ^ Specsyn.Report.partition_report ~constraints est ^ "\n",
    solution.Specsyn.Search.part )

let partition_report_for ~constraints s part =
  let graph = Slif.Graph.make s in
  let est = Specsyn.Search.estimator graph part in
  Specsyn.Report.partition_report ~constraints est ^ "\n"

let explore_output ?(jobs = 1) ?chunk ?(timings = false) ~constraints slif =
  let entries = Specsyn.Explore.run ~jobs ?chunk ~constraints slif in
  Specsyn.Report.explore_report ~timings entries ^ "\n"
