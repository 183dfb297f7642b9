(* slif — command-line front end to the SLIF / SpecSyn reproduction.

   Subcommands:
     dump-spec   print a bundled benchmark specification (VHDL subset)
     build       parse + build + annotate; print stats, text form, or DOT
     estimate    metrics for a named partition heuristic
     partition   run a partitioning algorithm and report the design
     compare     SLIF vs ADD vs CDFG format sizes
     figure4     regenerate the paper's Figure 4 table
     store       write / inspect persistent SLIF store files
     serve       long-running query daemon (newline-delimited JSON)

   The query subcommands (build, estimate, partition) and the daemon share
   one implementation, [Slif_server.Ops], so their outputs cannot drift
   apart. *)

open Cmdliner
module Ops = Slif_server.Ops
module Store = Slif_store.Store

let spec_names = List.map (fun s -> s.Specs.Registry.spec_name) Specs.Registry.all

(* Every user-facing failure funnels through this: one line on stderr,
   exit code 1.  No raw exception ever reaches the terminal. *)
exception Fail of string

let failf fmt = Printf.ksprintf (fun msg -> raise (Fail msg)) fmt

let guarded f =
  match f () with
  | code -> code
  | exception Fail msg ->
      Printf.eprintf "slif: %s\n" msg;
      1
  | exception Sys_error msg ->
      Printf.eprintf "slif: %s\n" msg;
      1
  | exception Store.Store_error err ->
      Printf.eprintf "slif: %s\n" (Store.error_message err);
      1
  | exception Failure msg ->
      Printf.eprintf "slif: %s\n" msg;
      1
  | exception Vhdl.Loc.Error (loc, msg) ->
      Printf.eprintf "slif: %s: %s\n" (Vhdl.Loc.to_string loc) msg;
      1

let load_spec name =
  match Specs.Registry.find name with
  | Some s -> s
  | None ->
      failf "unknown spec %S (expected one of: %s)" name (String.concat ", " spec_names)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_source = function
  | `Bundled spec -> (load_spec spec).Specs.Registry.source
  | `File path -> read_file path

let source_of ~file ~spec =
  match (file, spec) with
  | Some path, _ -> `File path
  | None, Some s -> `Bundled s
  | None, None -> failf "specify a bundled spec name or --file"

(* [--auto-profile] runs the interpreter on the design under pseudo-random
   stimuli and uses the measured branch probabilities and loop trip
   counts.  The profile travels as text — the same form the cache key
   hashes — so the cached and uncached paths see identical inputs. *)
let resolve_profile_text ~auto ~profile source =
  match profile with
  | Some path -> Some (read_file path)
  | None when auto ->
      let sem = Vhdl.Sem.build (Ops.parse_any source) in
      Some (Flow.Profile.to_string (Flow.Profiler.auto ~runs:5 ~seed:1 sem))
  | None -> None

let annotated ?cache_dir ~auto ~profile source =
  let profile_text = resolve_profile_text ~auto ~profile source in
  Ops.annotated ?cache_dir ?profile_text source

(* --- Observability flags (accepted by every subcommand) ------------------- *)

type obs_opts = { trace : string option; metrics : string option; verbose : bool }

let obs_term =
  let trace =
    let doc =
      "Record spans of the run and write them to $(docv) as Chrome trace_event \
       JSON (load in chrome://tracing or https://ui.perfetto.dev)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc =
      "Write counters and timing histograms of the run to $(docv) as JSON \
       (use a .jsonl extension for one metric per line)."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let verbose =
    let doc = "Print a counter/histogram summary to stderr after the command." in
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc)
  in
  let combine trace metrics verbose = { trace; metrics; verbose } in
  Term.(const combine $ trace $ metrics $ verbose)

let is_jsonl path = Filename.check_suffix path ".jsonl"

(* Run a subcommand body under the observability registry: recording is
   enabled only when one of the flags asks for output, so the default
   path keeps the probes down to a single bool check each. *)
let with_obs opts f =
  let f () = guarded f in
  let active = opts.trace <> None || opts.metrics <> None || opts.verbose in
  if active then Slif_obs.Registry.enable ();
  let export () =
    if active then begin
      Slif_obs.Registry.disable ();
      Option.iter Slif_obs.Trace.write_file opts.trace;
      Option.iter
        (fun path ->
          if is_jsonl path then Slif_obs.Metrics.write_jsonl path
          else Slif_obs.Metrics.write_file path)
        opts.metrics;
      if opts.verbose then prerr_string (Slif_obs.Metrics.summary_string ())
    end
  in
  (* A bad --trace/--metrics path should not mask the subcommand's work. *)
  let export () =
    match export () with
    | () -> 0
    | exception Sys_error msg ->
        Printf.eprintf "slif: cannot write observability output: %s\n" msg;
        1
  in
  match f () with
  | code ->
      let ecode = export () in
      if code = 0 then ecode else code
  | exception e ->
      ignore (export ());
      raise e

(* --- Common arguments ---------------------------------------------------- *)

let spec_arg =
  let doc = "Bundled benchmark spec (ans, ether, fuzzy, vol)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)

(* Deliberately [string], not [Arg.file]: a missing path must flow
   through [guarded] and exit with our one-line diagnostic. *)
let file_arg =
  let doc = "Read the specification from $(docv) instead of a bundled spec." in
  Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc = "Branch-probability file (see lib/flow/profile.mli for syntax)." in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let auto_profile_arg =
  let doc = "Derive branch probabilities by interpreting the design under \
             pseudo-random stimuli instead of using static defaults." in
  Arg.(value & flag & info [ "auto-profile" ] ~doc)

let cache_dir_arg =
  let doc =
    "Cache annotated SLIFs in $(docv) as store files keyed by content \
     hash of (source, profile, technology catalog): the second run of the \
     same inputs loads instead of re-annotating."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* --- dump-spec ------------------------------------------------------------ *)

let dump_spec_cmd =
  let run obs spec =
    with_obs obs @@ fun () ->
    print_string (load_spec spec).Specs.Registry.source;
    0
  in
  let spec =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc:"Spec name.")
  in
  Cmd.v
    (Cmd.info "dump-spec" ~doc:"Print a bundled benchmark specification.")
    Term.(const run $ obs_term $ spec)

(* --- build ----------------------------------------------------------------- *)

let build_cmd =
  let run obs spec file profile auto cache_dir dot text annotations =
    with_obs obs @@ fun () ->
    let source = read_source (source_of ~file ~spec) in
    let slif = annotated ?cache_dir ~auto ~profile source in
    if dot then print_string (Slif.Dot.to_dot ~annotations slif)
    else if text then print_string (Slif.Text.to_string slif)
    else print_string (Ops.build_stats_output slif);
    0
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of stats.") in
  let text = Arg.(value & flag & info [ "text" ] ~doc:"Emit the SLIF text serialization.") in
  let ann =
    Arg.(value & flag & info [ "annotations" ] ~doc:"Include annotations in DOT output.")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build (and annotate) the SLIF of a specification.")
    Term.(
      const run $ obs_term $ spec_arg $ file_arg $ profile_arg $ auto_profile_arg
      $ cache_dir_arg $ dot $ text $ ann)

(* --- estimate / partition --------------------------------------------------- *)

let algo_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Ops.algo_of_string s) in
  Arg.conv (parse, fun fmt a -> Format.pp_print_string fmt (Specsyn.Explore.algo_name a))

let algo_arg =
  let doc = "Partitioning algorithm: random, greedy, gm, sa, cluster." in
  Arg.(value & opt algo_conv Specsyn.Explore.Greedy & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)

let parse_deadlines deadlines =
  List.map
    (fun spec ->
      match Ops.parse_deadline spec with Ok d -> d | Error msg -> failf "%s" msg)
    deadlines

let partition_cmd =
  let run obs spec file profile auto cache_dir algo explore pareto jobs chunk no_timings
      deadlines save load_ =
    with_obs obs @@ fun () ->
    if jobs < 1 then failf "--jobs must be at least 1";
    if chunk < 0 then failf "--chunk must be at least 1 (or 0 for the heuristic)";
    let chunk = if chunk >= 1 then Some chunk else None in
    let source = read_source (source_of ~file ~spec) in
    let slif = annotated ?cache_dir ~auto ~profile source in
    let constraints = Ops.constraints_of_deadlines (parse_deadlines deadlines) in
    if explore then
      print_string
        (Ops.explore_output ~jobs ?chunk ~timings:(not no_timings) ~constraints slif)
    else if pareto then begin
      let s = Ops.apply_proc_asic slif in
      let graph = Slif.Graph.make s in
      let points = Specsyn.Pareto.sweep ~jobs ?chunk ~constraints graph in
      let table =
        Slif_util.Table.create
          ~header:[ "worst exectime (us)"; "hw gates"; "sw bytes"; "time weight" ]
      in
      List.iter
        (fun (p : Specsyn.Pareto.point) ->
          Slif_util.Table.add_row table
            [
              Printf.sprintf "%.1f" p.worst_exectime_us;
              Printf.sprintf "%.0f" p.hw_gates;
              Printf.sprintf "%.0f" p.sw_bytes;
              Printf.sprintf "%.1f" p.weight_time;
            ])
        points;
      print_endline "Pareto front of the performance/area trade-off:";
      Slif_util.Table.print table
    end
    else begin
      (match load_ with
      | Some path ->
          let s = Ops.apply_proc_asic slif in
          let text =
            match Store.read_file path with
            | Ok text -> text
            | Error err -> failf "%s" (Store.error_message err)
          in
          let part, note =
            match Store.decision_of_string s text with
            | Ok (part, note) -> (part, note)
            | Error Store.Bad_magic ->
                (* Pre-store decisions used a line-oriented text format;
                   keep replaying those. *)
                (Slif.Decision.of_string s text, Slif.Decision.note text)
            | Error err -> failf "%s" (Store.error_message err)
          in
          let note = match note with Some n -> Printf.sprintf " (note: %s)" n | None -> "" in
          Printf.printf "recorded decision from %s%s\n" path note;
          print_newline ();
          print_string (Ops.partition_report_for ~constraints s part)
      | None ->
          let output, part = Ops.partition_output ~algo ~constraints slif in
          print_string output;
          (match save with
          | Some path ->
              Store.save_decision ~path ~note:"produced by slif partition" part;
              Printf.printf "decision recorded to %s\n" path
          | None -> ()));
      ()
    end;
    0
  in
  let explore =
    Arg.(value & flag & info [ "explore" ] ~doc:"Sweep all stock allocations and algorithms.")
  in
  let pareto =
    Arg.(value & flag
         & info [ "pareto" ] ~doc:"Report the Pareto front of the performance/area trade-off.")
  in
  let jobs =
    let doc =
      "Run the --explore/--pareto sweep on $(docv) domains.  The result is \
       bit-identical for every value (each task derives its own PRNG stream); only \
       the wall-clock changes.  Defaults to the recommended domain count of the \
       machine."
    in
    Arg.(value
         & opt int (Slif_util.Pool.default_jobs ())
         & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let chunk =
    let doc =
      "Slice multi-restart work into contiguous chunks of $(docv) restarts \
       (points, for --pareto).  0 picks the built-in heuristic (about four \
       chunks per job, clamped to 1..64).  The result is bit-identical for \
       every value; only load balancing changes."
    in
    Arg.(value & opt int 0 & info [ "chunk" ] ~docv:"N" ~doc)
  in
  let no_timings =
    Arg.(value & flag
         & info [ "no-timings" ]
             ~doc:"Omit the wall-clock columns from the --explore report, making the \
                   output reproducible across runs and -j values.")
  in
  let deadlines =
    Arg.(value & opt_all string []
         & info [ "deadline"; "d" ] ~docv:"PROC=US"
             ~doc:"Execution-time constraint on a process, e.g. --deadline fuzzymain=2000. \
                   Repeatable.")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE"
             ~doc:"Record the resulting decision to $(docv) (store container format).")
  in
  let load_ =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"FILE"
             ~doc:"Replay a recorded decision instead of searching (store container or \
                   legacy text format).")
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Partition a specification onto a processor-ASIC architecture.")
    Term.(
      const run $ obs_term $ spec_arg $ file_arg $ profile_arg $ auto_profile_arg
      $ cache_dir_arg $ algo_arg $ explore $ pareto $ jobs $ chunk $ no_timings
      $ deadlines $ save $ load_)

let estimate_cmd =
  let run obs spec file profile auto cache_dir bounds =
    with_obs obs @@ fun () ->
    let source = read_source (source_of ~file ~spec) in
    let slif = annotated ?cache_dir ~auto ~profile source in
    print_string (Ops.estimate_output ~bounds slif);
    0
  in
  let bounds =
    Arg.(value & flag
         & info [ "bounds" ]
             ~doc:"Also report best/worst-case execution times from the min/max \
                   access-frequency annotations.")
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Report metrics for the all-software seed partition.")
    Term.(
      const run $ obs_term $ spec_arg $ file_arg $ profile_arg $ auto_profile_arg
      $ cache_dir_arg $ bounds)

(* --- compare ----------------------------------------------------------------- *)

let compare_cmd =
  let run obs spec file =
    with_obs obs @@ fun () ->
    let source = read_source (source_of ~file ~spec) in
    let design = Ops.parse_any source in
    let sem = Vhdl.Sem.build design in
    let slif = Slif.Build.build sem in
    let stats = Slif.Stats.of_slif slif in
    let cdfg = Cdfg.Graph.of_design design in
    let add = Addfmt.Add.of_design design in
    let table = Slif_util.Table.create ~header:[ "format"; "nodes"; "edges"; "n^2" ] in
    let row name n e =
      Slif_util.Table.add_row table
        [ name; string_of_int n; string_of_int e; string_of_int (n * n) ]
    in
    row "SLIF-AG" stats.Slif.Stats.bv stats.Slif.Stats.channels;
    row "ADD/VT" (Addfmt.Add.node_count add) (Addfmt.Add.edge_count add);
    row "CDFG" (Cdfg.Graph.node_count cdfg) (Cdfg.Graph.edge_count cdfg);
    Slif_util.Table.print table;
    0
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare SLIF size against the ADD and CDFG formats.")
    Term.(const run $ obs_term $ spec_arg $ file_arg)

(* --- figure4 ------------------------------------------------------------------- *)

let figure4_cmd =
  let run obs jobs =
    with_obs obs @@ fun () ->
    if jobs < 1 then failf "--jobs must be at least 1";
    let table =
      Slif_util.Table.create
        ~header:[ ""; "Lines"; "BV"; "C"; "T-slif(s)"; "T-est(s)"; "parts/s" ]
    in
    let measure (spec : Specs.Registry.spec) =
      Slif_obs.Span.with_ "figure4.spec" ~args:[ ("spec", spec.spec_name) ]
      @@ fun () ->
      let build () =
        let design = Vhdl.Parser.parse spec.source in
        let sem = Vhdl.Sem.build design in
        Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem)
      in
      let slif, t_slif = Slif_obs.Clock.time build in
      let s = Ops.apply_proc_asic slif in
      let graph = Slif.Graph.make s in
      let part = Specsyn.Search.seed_partition s in
      let estimate () =
        let est = Specsyn.Search.estimator graph part in
        Array.iter
          (fun (n : Slif.Types.node) ->
            if Slif.Types.is_process n then
              ignore (Slif.Estimate.exectime_us est n.n_id))
          s.Slif.Types.nodes;
        ignore (Slif.Estimate.size est (Slif.Partition.Cproc 0));
        ignore (Slif.Estimate.io_pins est (Slif.Partition.Cproc 0));
        ignore (Slif.Estimate.bus_bitrate_mbps est 0)
      in
      let (), t_est = Slif_obs.Clock.time estimate in
      (* The paper's point is that T-est makes interactive exploration
         feasible (experiment R4): report the partitions-per-second a
         greedy search actually achieves on this spec. *)
      let problem = Specsyn.Search.problem graph in
      let solution, t_part = Slif_obs.Clock.time (fun () -> Specsyn.Greedy.run problem) in
      let parts_per_s =
        if t_part > 0.0 then float_of_int solution.Specsyn.Search.evaluated /. t_part
        else 0.0
      in
      let stats = Slif.Stats.of_slif slif in
      [
        spec.spec_name;
        string_of_int (Specs.Registry.line_count spec);
        string_of_int stats.Slif.Stats.bv;
        string_of_int stats.Slif.Stats.channels;
        Printf.sprintf "%.4f" t_slif;
        Printf.sprintf "%.6f" t_est;
        Printf.sprintf "%.0f" parts_per_s;
      ]
    in
    (* Pool.map keeps submission order, so the table rows land in registry
       order whatever the parallelism. *)
    let rows = Slif_util.Pool.with_pool ~jobs (fun pool -> Slif_util.Pool.map pool measure Specs.Registry.all) in
    List.iter (Slif_util.Table.add_row table) rows;
    Slif_util.Table.print table;
    0
  in
  let jobs =
    let doc =
      "Measure the benchmark specs on $(docv) domains.  Row order (and every \
       column except the timings) is identical for all values."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "figure4" ~doc:"Regenerate the paper's Figure 4 results table.")
    Term.(const run $ obs_term $ jobs)

(* --- store ------------------------------------------------------------------ *)

let store_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Store file.")

let store_write_cmd =
  let run obs spec file profile auto out =
    with_obs obs @@ fun () ->
    let source = read_source (source_of ~file ~spec) in
    let profile_text = resolve_profile_text ~auto ~profile source in
    let slif = Ops.annotated ?profile_text source in
    let provenance =
      {
        Store.pv_source_md5 = Digest.to_hex (Digest.string source);
        pv_profile = profile_text;
        pv_tech = Slif_store.Cache.tech_fingerprint ();
      }
    in
    Store.save_slif ~path:out ~provenance slif;
    Printf.printf "wrote %s (%s, format v%d)\n" out slif.Slif.Types.design_name
      Store.format_version;
    0
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output store file.")
  in
  Cmd.v
    (Cmd.info "write" ~doc:"Annotate a specification and write the store container.")
    Term.(const run $ obs_term $ spec_arg $ file_arg $ profile_arg $ auto_profile_arg $ out)

let store_info_cmd =
  let run obs path =
    with_obs obs @@ fun () ->
    let text =
      match Store.read_file path with
      | Ok text -> text
      | Error err -> failf "%s" (Store.error_message err)
    in
    match Store.inspect text with
    | Error err -> failf "%s" (Store.error_message err)
    | Ok info ->
        Printf.printf "format:  v%d\n" info.Store.si_version;
        Printf.printf "kind:    %s\n"
          (match info.Store.si_kind with Store.Kslif -> "annotated slif" | Store.Kdecision -> "partition decision");
        Printf.printf "design:  %s\n" info.Store.si_design;
        (match info.Store.si_provenance with
        | Some p ->
            Printf.printf "source:  md5 %s\n"
              (if p.Store.pv_source_md5 = "" then "(unknown)" else p.Store.pv_source_md5);
            Printf.printf "profile: %s\n"
              (match p.Store.pv_profile with Some _ -> "recorded" | None -> "static defaults");
            Printf.printf "tech:    %s\n" p.Store.pv_tech
        | None -> ());
        Printf.printf "section  offset      size        crc\n";
        List.iter
          (fun (s : Store.section_info) ->
            Printf.printf "%s     %-10d  %-10d  %08lx\n" s.Store.sec_tag
              s.Store.sec_offset s.Store.sec_size s.Store.sec_crc)
          info.Store.si_sections;
        0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Inspect a store file: header, sections, provenance.")
    Term.(const run $ obs_term $ store_file_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store" ~doc:"Write and inspect persistent SLIF store files.")
    [ store_write_cmd; store_info_cmd ]

(* --- synth ------------------------------------------------------------------ *)

let synth_cmd =
  let run obs seed nodes family depth fanout var_fraction sharing jobs out version =
    with_obs obs @@ fun () ->
    let family =
      match Slif_synth.Synth.family_of_string family with
      | Ok f -> f
      | Error msg -> failf "%s" msg
    in
    if jobs < 1 then failf "--jobs must be at least 1";
    (match version with
    | 1 | 2 -> ()
    | v -> failf "--format must be 1 or 2 (got %d)" v);
    let p =
      {
        (Slif_synth.Synth.default_params ~seed ~nodes family) with
        depth;
        fanout;
        var_fraction;
        sharing;
      }
    in
    let slif, t_gen =
      Slif_obs.Clock.time (fun () ->
          if jobs = 1 then Slif_synth.Synth.generate p
          else
            Slif_util.Pool.with_pool ~jobs (fun pool ->
                Slif_synth.Synth.generate ~pool p))
    in
    Printf.printf "%s\n" (Slif_synth.Synth.describe slif);
    (match out with
    | Some path ->
        let (), t_write =
          Slif_obs.Clock.time (fun () -> Store.save_slif ~path ~version slif)
        in
        let bytes = (Unix.stat path).Unix.st_size in
        Printf.printf "wrote %s (format v%d, %d bytes, %.1f bytes/node)\n" path version
          bytes
          (float_of_int bytes /. float_of_int nodes);
        Printf.printf "generate %.3fs  write %.3fs\n" t_gen t_write
    | None -> Printf.printf "generate %.3fs\n" t_gen);
    0
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Root seed (the graph is a pure function of it).")
  in
  let nodes =
    Arg.(value & opt int 100_000
         & info [ "nodes" ] ~docv:"N" ~doc:"Total node count (behaviors + variables).")
  in
  let family =
    let all =
      String.concat ", " (List.map Slif_synth.Synth.family_to_string Slif_synth.Synth.all_families)
    in
    Arg.(value & opt string "mixed"
         & info [ "family" ] ~docv:"NAME" ~doc:(Printf.sprintf "Topology family: %s." all))
  in
  let depth =
    Arg.(value & opt int 64
         & info [ "depth" ] ~docv:"N" ~doc:"Max call-chain length (clamped to 2048).")
  in
  let fanout =
    Arg.(value & opt int 16
         & info [ "fanout" ] ~docv:"N" ~doc:"Children per node in fanout shapes.")
  in
  let var_fraction =
    Arg.(value & opt float 0.25
         & info [ "var-fraction" ] ~docv:"F"
             ~doc:"Fraction of nodes that are variables (sharing families).")
  in
  let sharing =
    Arg.(value & opt int 3
         & info [ "sharing" ] ~docv:"N"
             ~doc:"Variable accesses generated per sharing behavior.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Generate on $(docv) domains; output is byte-identical for every value.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the graph as a store container.")
  in
  let version =
    Arg.(value & opt int Store.format_version_v2
         & info [ "format" ] ~docv:"V"
             ~doc:"Store format version to write: 1 (eager) or 2 (lazily decodable).")
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Generate a deterministic synthetic access graph (and optionally write it \
             as a store container).")
    Term.(
      const run $ obs_term $ seed $ nodes $ family $ depth $ fanout $ var_fraction
      $ sharing $ jobs $ out $ version)

(* --- serve ------------------------------------------------------------------ *)

let serve_cmd =
  let run obs socket port cache_dir lru workers jobs max_requests slow_ms
      max_batch_items max_outq_mb max_connections max_graph_mb retain_traces trace_dir
      event_log event_level sample =
    with_obs obs @@ fun () ->
    let addr =
      match (socket, port) with
      | Some path, None -> Slif_server.Server.Unix_sock path
      | None, Some p -> Slif_server.Server.Tcp p
      | None, None -> failf "specify --socket PATH or --port N"
      | Some _, Some _ -> failf "give only one of --socket and --port"
    in
    if lru < 1 then failf "--lru must be at least 1";
    if workers < 1 then failf "--workers must be at least 1";
    if jobs < 1 then failf "--jobs must be at least 1";
    if sample < 1 then failf "--sample must be at least 1";
    if max_batch_items < 1 then failf "--max-batch-items must be at least 1";
    if max_outq_mb < 1 then failf "--max-outq-mb must be at least 1";
    (match max_connections with
    | Some n when n < 1 -> failf "--max-connections must be at least 1"
    | Some _ | None -> ());
    (match max_graph_mb with
    | Some n when n < 1 -> failf "--max-graph-mb must be at least 1"
    | Some _ | None -> ());
    (match slow_ms with
    | Some s when s < 0.0 -> failf "--slow-ms must not be negative"
    | Some _ | None -> ());
    if retain_traces < 0 then failf "--retain-traces must not be negative";
    let cfg =
      {
        Slif_server.Server.addr;
        cache_dir;
        lru_capacity = lru;
        workers;
        jobs;
        max_requests;
        slow_ms;
        max_line_bytes = Slif_server.Server.default_max_line_bytes;
        max_batch_items;
        max_outq_bytes = max_outq_mb * 1024 * 1024;
        max_connections;
        max_graph_mb;
        retain_traces;
        trace_dir;
      }
    in
    (match event_log with
    | Some path ->
        Slif_obs.Event.open_log path;
        Slif_obs.Event.set_level event_level;
        Slif_obs.Event.set_sample sample
    | None -> ());
    let on_ready sockaddr =
      (match sockaddr with
      | Unix.ADDR_UNIX path -> Printf.printf "listening on %s\n" path
      | Unix.ADDR_INET (_, port) -> Printf.printf "listening on 127.0.0.1:%d\n" port);
      flush stdout
    in
    Fun.protect ~finally:Slif_obs.Event.close_log @@ fun () ->
    (match Slif_server.Server.run ~on_ready cfg with
    | () -> ()
    | exception Unix.Unix_error (err, _, arg) ->
        failf "cannot serve on %s: %s"
          (if arg = "" then "socket" else arg)
          (Unix.error_message err));
    0
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"N"
             ~doc:"Listen on loopback TCP port $(docv) (0 picks a free port).")
  in
  let lru =
    Arg.(value & opt int 8
         & info [ "lru" ] ~docv:"N" ~doc:"Keep at most $(docv) annotated graphs resident.")
  in
  let workers =
    Arg.(value & opt int 1
         & info [ "workers" ] ~docv:"N"
             ~doc:"Execute requests on $(docv) worker domains (the acceptor stays on \
                   its own).")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Default domain count for explore requests that do not set their own.")
  in
  let max_batch_items =
    Arg.(value & opt int Slif_server.Protocol.default_max_batch_items
         & info [ "max-batch-items" ] ~docv:"N"
             ~doc:"Reject batch requests carrying more than $(docv) items.")
  in
  let max_outq_mb =
    Arg.(value & opt int (Slif_server.Server.default_max_outq_bytes / (1024 * 1024))
         & info [ "max-outq-mb" ] ~docv:"MB"
             ~doc:"Disconnect a client once its unread responses exceed $(docv) \
                   megabytes (slow-reader backpressure).")
  in
  let max_connections =
    Arg.(value & opt (some int) None
         & info [ "max-connections" ] ~docv:"N"
             ~doc:"Refuse connections beyond $(docv) concurrent clients (default and \
                   ceiling: 1000, which keeps every polled fd below select's limit).")
  in
  let max_graph_mb =
    Arg.(value & opt (some int) None
         & info [ "max-graph-mb" ] ~docv:"MB"
             ~doc:"Reject store-file loads whose decoded graph would exceed $(docv) \
                   megabytes (typed error kind \"graph_too_large\"); metadata-only \
                   loads of v2 containers are always admitted.")
  in
  let max_requests =
    Arg.(value & opt (some int) None
         & info [ "max-requests" ] ~docv:"N"
             ~doc:"Exit after serving $(docv) requests (soak and smoke harnesses).")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Log requests that take at least $(docv) milliseconds to stderr (and \
                   the event log, at warn level), and retain their full cross-domain \
                   span tree from the flight recorder.")
  in
  let retain_traces =
    Arg.(value & opt int 32
         & info [ "retain-traces" ] ~docv:"N"
             ~doc:"Keep the span trees of the last $(docv) slow or failing requests \
                   (tail-based retention; 0 disables it).")
  in
  let trace_dir =
    Arg.(value & opt (some string) None
         & info [ "trace-dir" ] ~docv:"DIR"
             ~doc:"Mirror each retained trace to $(docv)/<trace-id>.json, and write \
                   SIGQUIT/crash flight dumps there instead of the temp dir.")
  in
  let event_log =
    Arg.(value & opt (some string) None
         & info [ "event-log" ] ~docv:"FILE"
             ~doc:"Append structured request events to $(docv) as JSON lines, each \
                   carrying the request's trace id.")
  in
  let event_level =
    let levels =
      [
        ("debug", Slif_obs.Event.Debug);
        ("info", Slif_obs.Event.Info);
        ("warn", Slif_obs.Event.Warn);
        ("error", Slif_obs.Event.Error);
      ]
    in
    Arg.(value & opt (enum levels) Slif_obs.Event.Info
         & info [ "event-level" ] ~docv:"LEVEL"
             ~doc:"Minimum level written to --event-log: debug, info, warn or error.")
  in
  let sample =
    Arg.(value & opt int 1
         & info [ "sample" ] ~docv:"N"
             ~doc:"Keep 1 in $(docv) debug/info event-log lines (warnings and errors \
                   always land).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve load/estimate/partition/explore/stats/health/metrics queries over \
             a socket (newline-delimited JSON).")
    Term.(
      const run $ obs_term $ socket $ port $ cache_dir_arg $ lru $ workers
      $ jobs $ max_requests $ slow_ms $ max_batch_items $ max_outq_mb $ max_connections
      $ max_graph_mb $ retain_traces $ trace_dir $ event_log $ event_level $ sample)

(* --- stats (client) --------------------------------------------------------- *)

let stats_cmd =
  let run obs socket port watch interval count timeout_ms =
    with_obs obs @@ fun () ->
    if interval <= 0.0 then failf "--interval must be positive";
    (match count with
    | Some n when n < 1 -> failf "--count must be at least 1"
    | Some _ | None -> ());
    let module J = Slif_obs.Json in
    let module Client = Slif_server.Client in
    let connect () =
      match (socket, port) with
      | Some path, None -> Client.connect_unix ?timeout_ms path
      | None, Some p -> Client.connect_tcp ?timeout_ms p
      | None, None -> failf "specify --socket PATH or --port N"
      | Some _, Some _ -> failf "give only one of --socket and --port"
    in
    let mem name j = Option.value (J.member name j) ~default:J.Null in
    let fnum j name =
      match mem name j with J.Int n -> float_of_int n | J.Float f -> f | _ -> nan
    in
    let inum j name =
      match mem name j with J.Int n -> n | J.Float f -> int_of_float f | _ -> 0
    in
    let render () =
      let c = connect () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let stats =
        match Client.request c (J.Obj [ ("op", J.String "stats") ]) with
        | Ok json -> json
        | Error msg -> failf "stats request failed: %s" msg
      in
      let lru = mem "lru" stats in
      Printf.printf "uptime %.1fs  requests %d  errors %d  inflight %d  lru %d/%d\n"
        (fnum stats "uptime_s") (inum stats "requests") (inum stats "errors")
        (inum stats "inflight") (inum lru "size") (inum lru "capacity");
      (match mem "gc" stats with
      | J.Obj _ as gc ->
          Printf.printf
            "gc     minor %d  major %d  promoted %.3g words  heap %.3g words\n"
            (inum gc "minor_collections") (inum gc "major_collections")
            (fnum gc "promoted_words")
            (float_of_int (inum gc "heap_words"))
      | _ -> ());
      (match mem "pool" stats with
      | J.Obj _ as p ->
          Printf.printf "pool   live %d (created %d)  tasks %d submitted / %d completed\n"
            (inum p "pools_live") (inum p "pools_created") (inum p "tasks_submitted")
            (inum p "tasks_completed")
      | _ -> ());
      (match mem "flight" stats with
      | J.Obj _ as f ->
          let rings =
            match mem "rings" f with J.List rs -> List.length rs | _ -> 0
          in
          Printf.printf
            "flight %d records (%d dropped) over %d rings  retained %d traces (%d \
             live)  dumps %d bytes\n"
            (inum f "records") (inum f "dropped") rings (inum f "retained")
            (inum f "retained_live") (inum f "dump_bytes")
      | _ -> ());
      (match mem "last_error" stats with
      | J.String msg -> Printf.printf "last error: %s\n" msg
      | _ -> ());
      (match mem "latency_us" stats with
      | J.Obj ((_ :: _) as ops) ->
          let table =
            Slif_util.Table.create
              ~header:[ "op"; "recent"; "p50 us"; "p90 us"; "p99 us"; "max us" ]
          in
          List.iter
            (fun (op, q) ->
              Slif_util.Table.add_row table
                [
                  op;
                  string_of_int (inum q "count");
                  Printf.sprintf "%.0f" (fnum q "p50");
                  Printf.sprintf "%.0f" (fnum q "p90");
                  Printf.sprintf "%.0f" (fnum q "p99");
                  Printf.sprintf "%.0f" (fnum q "max");
                ])
            ops;
          Slif_util.Table.print table
      | _ -> print_endline "no requests observed yet");
      flush stdout
    in
    let render () =
      try render () with
      | Unix.Unix_error (err, _, _) ->
          failf "cannot reach the daemon: %s" (Unix.error_message err)
      | Client.Timeout -> failf "the daemon did not answer within the timeout"
      | End_of_file -> failf "the daemon closed the connection"
    in
    if not watch then render ()
    else begin
      (* top-style: redraw in place on a terminal, scroll otherwise. *)
      let iterations = match count with Some n -> n | None -> max_int in
      let i = ref 0 in
      while !i < iterations do
        if !i > 0 then Unix.sleepf interval;
        if Unix.isatty Unix.stdout then print_string "\027[H\027[2J";
        render ();
        incr i
      done
    end;
    0
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix-domain socket path.")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"N" ~doc:"Daemon loopback TCP port.")
  in
  let watch =
    Arg.(value & flag
         & info [ "watch"; "w" ]
             ~doc:"Refresh continuously (top-style) instead of printing once.")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECS" ~doc:"Seconds between --watch refreshes.")
  in
  let count =
    Arg.(value & opt (some int) None
         & info [ "count" ] ~docv:"N"
             ~doc:"Stop --watch after $(docv) refreshes (default: until interrupted).")
  in
  let timeout_ms =
    Arg.(value & opt (some int) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Fail if the daemon does not answer within $(docv) milliseconds.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Show a running daemon's health and recent per-op latency quantiles.")
    Term.(
      const run $ obs_term $ socket $ port $ watch $ interval $ count $ timeout_ms)

(* --- trace (client) --------------------------------------------------------- *)

let trace_cmd =
  let run obs socket port id follow interval export timeout_ms =
    with_obs obs @@ fun () ->
    if interval <= 0.0 then failf "--interval must be positive";
    let module J = Slif_obs.Json in
    let module Client = Slif_server.Client in
    let connect () =
      match (socket, port) with
      | Some path, None -> Client.connect_unix ?timeout_ms path
      | None, Some p -> Client.connect_tcp ?timeout_ms p
      | None, None -> failf "specify --socket PATH or --port N"
      | Some _, Some _ -> failf "give only one of --socket and --port"
    in
    let mem name j = Option.value (J.member name j) ~default:J.Null in
    let str j name = match mem name j with J.String s -> s | _ -> "" in
    let inum j name =
      match mem name j with J.Int n -> n | J.Float f -> int_of_float f | _ -> 0
    in
    let fnum j name =
      match mem name j with J.Int n -> float_of_int n | J.Float f -> f | _ -> nan
    in
    let fetch c fields =
      match Client.request c (J.Obj fields) with
      | Ok json -> json
      | Error msg -> failf "traces request failed: %s" msg
    in
    (* One retained tree, ASCII-indented by parent-span causality.
       Events and counter samples carry id 0 and are leaves; a span whose
       parent fell out of the ring window renders as a root. *)
    let render_tree trace =
      let spans = match mem "spans" trace with J.List l -> l | _ -> [] in
      Printf.printf "trace %s  %s  op %s  %.0f us  %d spans\n" (str trace "id")
        (str trace "reason") (str trace "op") (fnum trace "dur_us") (List.length spans);
      let known =
        List.sort_uniq compare
          (List.filter_map
             (fun s -> if str s "kind" = "span" then Some (inum s "id") else None)
             spans)
      in
      let children p =
        List.filter (fun s -> inum s "parent" = p && inum s "id" <> p) spans
      in
      let roots = List.filter (fun s -> not (List.mem (inum s "parent") known)) spans in
      let rec print_rec depth s =
        let indent = String.make (2 * depth) ' ' in
        let label = indent ^ str s "name" in
        if str s "kind" <> "span" then
          Printf.printf "  %-44s %12s  dom %d\n" label "*" (inum s "dom")
        else begin
          Printf.printf "  %-44s %9.1f us  dom %d\n" label
            (float_of_int (inum s "dur_ns") /. 1e3)
            (inum s "dom");
          List.iter (print_rec (depth + 1)) (children (inum s "id"))
        end
      in
      List.iter (print_rec 0) roots
    in
    let seen = Hashtbl.create 16 in
    let render () =
      let c = connect () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match export with
      | Some path ->
          let dump = fetch c [ ("op", J.String "dump") ] in
          let out = match mem "output" dump with J.String s -> s | _ -> "{}" in
          let oc = open_out path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
              output_string oc out);
          Printf.printf "wrote %d bytes of Chrome trace_event to %s\n"
            (String.length out) path
      | None -> ());
      match id with
      | Some tid ->
          let resp = fetch c [ ("op", J.String "traces"); ("id", J.String tid) ] in
          render_tree (mem "trace" resp)
      | None ->
          let resp = fetch c [ ("op", J.String "traces") ] in
          let traces = match mem "traces" resp with J.List l -> l | _ -> [] in
          let fresh =
            List.filter (fun t -> not (Hashtbl.mem seen (str t "id"))) traces
          in
          List.iter (fun t -> Hashtbl.replace seen (str t "id") ()) fresh;
          let shown = if follow then fresh else traces in
          if shown = [] && not follow then
            Printf.printf "no traces retained (%d retained in total since start)\n"
              (inum resp "retained_total")
          else
            List.iter
              (fun t ->
                Printf.printf "%-12s %-6s %-10s %9.0f us  %d spans\n" (str t "id")
                  (str t "reason") (str t "op") (fnum t "dur_us") (inum t "spans"))
              shown;
          flush stdout
    in
    let render () =
      try render () with
      | Unix.Unix_error (err, _, _) ->
          failf "cannot reach the daemon: %s" (Unix.error_message err)
      | Client.Timeout -> failf "the daemon did not answer within the timeout"
      | End_of_file -> failf "the daemon closed the connection"
    in
    if not follow then render ()
    else
      while true do
        render ();
        Unix.sleepf interval
      done;
    0
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix-domain socket path.")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"N" ~doc:"Daemon loopback TCP port.")
  in
  let id =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"TRACE"
             ~doc:"Render the retained span tree of trace $(docv) (e.g. c3-r17) \
                   instead of the summary list.")
  in
  let follow =
    Arg.(value & flag
         & info [ "follow"; "f" ]
             ~doc:"Poll the daemon and print each newly retained trace once \
                   (tail -f for slow and failing requests).")
  in
  let interval =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECS" ~doc:"Seconds between --follow polls.")
  in
  let export =
    Arg.(value & opt (some string) None
         & info [ "export" ] ~docv:"FILE"
             ~doc:"Fetch the daemon's whole flight window and write it to $(docv) as \
                   Chrome trace_event JSON (load in chrome://tracing or Perfetto).")
  in
  let timeout_ms =
    Arg.(value & opt (some int) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Fail if the daemon does not answer within $(docv) milliseconds.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"List or render the traces a daemon retained for slow and failing \
             requests, or export its flight-recorder window as a Chrome trace.")
    Term.(
      const run $ obs_term $ socket $ port $ id $ follow $ interval $ export
      $ timeout_ms)

(* --- profile ---------------------------------------------------------------- *)

(* "-j 4", "-j 1..8", "-j 1,2,4" or mixtures ("1..2,8"): the domain
   counts the scaling sweep measures. *)
let parse_jobs_range s =
  let parse_int what v =
    match int_of_string_opt (String.trim v) with
    | Some n when n >= 1 -> n
    | Some _ -> failf "-j: domain counts must be at least 1 (got %s)" v
    | None -> failf "-j: %s %S is not a number" what v
  in
  let range_split item =
    let n = String.length item in
    let rec find i =
      if i + 1 >= n then None
      else if item.[i] = '.' && item.[i + 1] = '.' then Some i
      else find (i + 1)
    in
    find 0
  in
  let parse_item item =
    match range_split item with
    | Some i ->
        let lo = parse_int "range start" (String.sub item 0 i) in
        let hi =
          parse_int "range end" (String.sub item (i + 2) (String.length item - i - 2))
        in
        if hi < lo then failf "-j: empty range %s" item;
        List.init (hi - lo + 1) (fun k -> lo + k)
    | None -> [ parse_int "domain count" item ]
  in
  let items = String.split_on_char ',' (String.trim s) in
  let jobs = List.concat_map parse_item (List.filter (fun i -> String.trim i <> "") items) in
  if jobs = [] then failf "-j: no domain counts in %S" s;
  List.sort_uniq compare jobs

(* Each run's Chrome trace gets its domain count in the file name:
   profile.json -> profile-j4.json. *)
let trace_path_for base j =
  let ext = Filename.extension base in
  if ext = "" then Printf.sprintf "%s-j%d" base j
  else Printf.sprintf "%s-j%d%s" (Filename.remove_extension base) j ext

let profile_cmd =
  let run spec file profile auto cache_dir jobs_spec chunk json_path trace min_coverage
      deadlines =
    guarded @@ fun () ->
    let jobs = parse_jobs_range jobs_spec in
    if chunk < 0 then failf "--chunk must be at least 1 (or 0 for the heuristic)";
    let chunk = if chunk >= 1 then Some chunk else None in
    (match min_coverage with
    | Some f when f < 0.0 || f > 1.0 -> failf "--min-coverage must be in [0, 1]"
    | Some _ | None -> ());
    let src = source_of ~file ~spec in
    let source = read_source src in
    let name =
      match src with `Bundled s -> s | `File path -> Filename.basename path
    in
    let slif = annotated ?cache_dir ~auto ~profile source in
    let constraints = Ops.constraints_of_deadlines (parse_deadlines deadlines) in
    let trace = Option.map (fun base j -> trace_path_for base j) trace in
    let result = Specsyn.Profiler.run ?chunk ?trace ~constraints ~name ~jobs slif in
    print_string (Specsyn.Profiler.to_text result);
    Option.iter
      (fun path -> Slif_obs.Json.write_file path (Specsyn.Profiler.to_json result))
      json_path;
    if not result.Specsyn.Profiler.identical then begin
      Printf.eprintf
        "slif: profiled runs disagree across domain counts — determinism violated\n";
      1
    end
    else
      match min_coverage with
      | Some floor
        when List.exists
               (fun (r : Specsyn.Profiler.run) ->
                 r.Specsyn.Profiler.p_report.Slif_obs.Attribution.coverage < floor)
               result.Specsyn.Profiler.runs ->
          Printf.eprintf
            "slif: attribution coverage fell below %.0f%% for at least one run\n"
            (100.0 *. floor);
          1
      | _ -> 0
  in
  let jobs =
    let doc =
      "Domain counts to sweep: a count (4), an inclusive range (1..8) or a \
       comma-separated mixture (1,2,4..8).  Each count runs the full \
       exploration once with the parallelism profiler armed."
    in
    Arg.(value & opt string "1..2" & info [ "jobs"; "j" ] ~docv:"RANGE" ~doc)
  in
  let chunk =
    let doc =
      "Restart slice size for multi-restart algorithms, as in \
       $(b,slif partition --chunk); 0 picks the heuristic."
    in
    Arg.(value & opt int 0 & info [ "chunk" ] ~docv:"N" ~doc)
  in
  let json_path =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the machine-readable scaling report (schema slif-profile/1) \
                   to $(docv).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write one Chrome trace per domain count, with spans and pool \
                   counter tracks; -jN is inserted before the extension.")
  in
  let min_coverage =
    Arg.(value & opt (some float) None
         & info [ "min-coverage" ] ~docv:"FRACTION"
             ~doc:"Exit nonzero when the attribution names less than $(docv) of the \
                   measured wall time in any run (CI smoke uses 0.9).")
  in
  let deadlines =
    Arg.(value & opt_all string []
         & info [ "deadline" ] ~docv:"BEHAVIOR=US"
             ~doc:"Execution-time constraint, as in $(b,slif partition).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile the parallel exploration across domain counts: speedup curve, \
             per-domain wall-time attribution (task/queue/lock/GC/copy/idle), lock \
             contention and GC pressure."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the same design-space exploration once per requested domain \
              count with the contention, GC and scheduler profilers armed, then \
              reports where each domain's wall time went.  Profiling never \
              changes what exploration computes: the command fails if results \
              differ across domain counts.";
         ])
    Term.(
      const run $ spec_arg $ file_arg $ profile_arg $ auto_profile_arg $ cache_dir_arg
      $ jobs $ chunk $ json_path $ trace $ min_coverage $ deadlines)

let main_cmd =
  let doc = "SLIF: a specification-level intermediate format for system design" in
  Cmd.group
    (Cmd.info "slif" ~version:"1.0.0" ~doc)
    [
      dump_spec_cmd; build_cmd; estimate_cmd; partition_cmd; compare_cmd; figure4_cmd;
      store_cmd; synth_cmd; serve_cmd; stats_cmd; trace_cmd; profile_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
