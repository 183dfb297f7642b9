(* slifbench: the end-to-end and per-layer benchmark of the SLIF tools.

   Four named workloads, each a path a user of the system pays:

     compile_corpus    VHDL text -> annotated SLIF -> one estimate, per spec
     explore_ether     design-space exploration sweeps over ether (-j 2)
     moves_synth_100k  move engine on a 10^5-node synthetic graph
     daemon_mixed      [slif serve] over TCP: resident hits plus misses

   One invocation runs one workload in this process:

     slifbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]

   and prints every metric by name, unit and sample count, then one JSON
   object as its last stdout line.  Without [--workload] every workload
   runs, each in a fresh child process of this executable, and [--out]
   collects them into one result file.  [compare] gates two sets of
   result files against the bounds in BENCHMARK.json; [--smoke] is the
   seconds-long schema and reference check [dune runtest] runs.

   Every output is checked against a reference (golden/ or an oracle);
   each mismatch or exception counts as one failed operation.  Layers
   are timed from outside, around their public entry points; the library
   is not modified.  slifbench/README.md documents the metrics. *)

module J = Slif_obs.Json

let now_us = Slif_obs.Clock.now_us

(* --- Samples and statistics ----------------------------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(* Nearest-rank quantile of a sorted array. *)
let rank sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let quantile samples q = rank (Samples.sorted samples) q

(* The median as Python's statistics.median computes it (the mean of the
   two middle values of an even count). *)
let median values =
  let d = Array.of_list (List.sort Float.compare values) in
  let n = Array.length d in
  if n mod 2 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let bp part whole = 1e4 *. ratio part whole

(* Throughput measured in slices of at least [slice_us] of busy time.  The
   median slice is reported, so a stall of the shared host moves one
   slice rather than the metric. *)
module Rate = struct
  type t = {
    slice_us : float;
    rates : Samples.t;
    mutable ops : int;  (** in the open slice *)
    mutable us : float;
    mutable total : int;
  }

  let create slice_us = { slice_us; rates = Samples.create (); ops = 0; us = 0.0; total = 0 }

  let add t ~ops ~us =
    t.ops <- t.ops + ops;
    t.us <- t.us +. us;
    t.total <- t.total + ops;
    if t.us >= t.slice_us && t.us > 0.0 then begin
      Samples.add t.rates (float_of_int t.ops /. (t.us /. 1e6));
      t.ops <- 0;
      t.us <- 0.0
    end

  let median t =
    if Samples.count t.rates = 0 then ratio (float_of_int t.ops) (t.us /. 1e6)
    else quantile t.rates 0.5
end

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | Some _ -> loop ()
      in
      loop ())

(* Minor-heap words and major collections of this process, for deltas. *)
let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* --- Metrics ----------------------------------------------------------------- *)

type metric_spec = { name : string; unit_ : string }

let spec name unit_ = { name; unit_ }

(* The end-to-end metrics every workload reports.  BENCHMARK.json mirrors
   this list (with direction and bound); [--smoke] checks the two agree. *)
let e2e_specs =
  [
    spec "setup_s" "s";
    spec "throughput_per_s" "op/s";
    spec "latency_p50_us" "us";
    spec "peak_rss_mb" "MB";
  ]

(* The per-layer metrics of the traced run.  Every workload reports every
   one, and one whose layer is off the workload's path reads 0 with 0
   samples.  A time reading 0 on every run says nothing, so stage costs
   are shares of the measured wall time (basis points); the absolute
   stage times are in the result's notes. *)
let layer_specs =
  [
    spec "trace.overhead_pct" "%";
    spec "latency_p99_us" "us";
    spec "runtime.minor_words_per_op" "words";
    spec "runtime.major_collections" "count";
    spec "core.estimate.memo_hit_ratio" "ratio";
    (* compile_corpus: stage shares of the op wall *)
    spec "vhdl.parse_bp" "bp";
    spec "vhdl.sem_bp" "bp";
    spec "core.build_bp" "bp";
    spec "core.annotate_bp" "bp";
    spec "specsyn.alloc_bp" "bp";
    spec "core.graph_make_bp" "bp";
    spec "core.estimate_bp" "bp";
    spec "compile.coverage_bp" "bp";
    spec "vhdl.tokens_per_s" "1/s";
    (* explore_ether *)
    spec "specsyn.explore.random.designs_per_s" "1/s";
    spec "specsyn.explore.greedy.designs_per_s" "1/s";
    spec "specsyn.explore.gm.designs_per_s" "1/s";
    spec "specsyn.explore.sa.designs_per_s" "1/s";
    spec "specsyn.explore.cluster.designs_per_s" "1/s";
    spec "specsyn.engine.rollback_ratio" "ratio";
    spec "util.pool.tasks_per_op" "count";
    spec "util.pool.queue_wait_bp" "bp";
    spec "util.pool.busy_ratio" "ratio";
    (* moves_synth_100k: setup-stage shares of the setup wall, move-stage
       shares of the move-loop wall *)
    spec "store.open_bp" "bp";
    spec "store.decode_bp" "bp";
    spec "core.setup_graph_make_bp" "bp";
    spec "specsyn.engine_create_bp" "bp";
    spec "specsyn.random_move_bp" "bp";
    spec "specsyn.propose_bp" "bp";
    spec "specsyn.commit_bp" "bp";
    spec "specsyn.rollback_bp" "bp";
    spec "specsyn.propose_tail_ratio" "ratio";
    spec "specsyn.rollback_tail_ratio" "ratio";
    spec "core.estimate.queries_per_move" "count";
    spec "specsyn.noop_draw_ratio" "ratio";
    (* daemon_mixed: client side, then server-side deltas *)
    spec "client.rtt_miss_over_hit" "ratio";
    spec "client.rtt_hit_tail_ratio" "ratio";
    spec "client.late_ratio" "ratio";
    spec "server.wire_residual_bp" "bp";
    spec "server.queue_wait_bp" "bp";
    spec "server.tail_ratio" "ratio";
    spec "server.lru_hit_ratio" "ratio";
    spec "server.loop_iterations_per_req" "count";
  ]

type metric = { m_name : string; m_value : float; m_samples : int }

let m ?(samples = 1) name value = { m_name = name; m_value = value; m_samples = samples }

let unit_of specs name =
  match List.find_opt (fun s -> s.name = name) specs with Some s -> s.unit_ | None -> ""

(* --- Results ------------------------------------------------------------------ *)

type result = {
  workload : string;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;  (** empty unless traced *)
  notes : (string * J.t) list;
}

(* One measured window of a workload. *)
type window = {
  lat : Samples.t;  (** per-op latency, us *)
  rate : Rate.t;  (** throughput_per_s *)
  words_per_op : float;  (** minor-heap words per op, working process *)
  majors : float;  (** major collections during the window, working process *)
  layer : metric list;  (** the workload's own per-layer metrics (traced) *)
  stage_us : (string * float) list;  (** absolute stage times, for the notes *)
}

(* The end-to-end metrics come from the untraced window; the traced
   window gives the per-layer metrics and the tracing overhead. *)
let compose ~workload ~setups ~rss ~attempted ~failed ~notes windows =
  let u = List.assoc false windows in
  let n = Samples.count u.lat in
  let e2e =
    [
      m ~samples:(List.length setups) "setup_s" (median setups);
      m ~samples:u.rate.Rate.total "throughput_per_s" (Rate.median u.rate);
      m ~samples:n "latency_p50_us" (quantile u.lat 0.5);
      m "peak_rss_mb" rss;
    ]
  in
  let layers, stage_notes =
    match List.assoc_opt true windows with
    | None -> ([], [])
    | Some t ->
        let given =
          [
            m ~samples:(Samples.count t.lat) "trace.overhead_pct"
              (100.0 *. (ratio (quantile t.lat 0.5) (quantile u.lat 0.5) -. 1.0));
            m ~samples:n "latency_p99_us" (quantile u.lat 0.99);
            m ~samples:u.rate.Rate.total "runtime.minor_words_per_op" u.words_per_op;
            m "runtime.major_collections" u.majors;
          ]
          @ t.layer
        in
        ( List.map
            (fun s ->
              match List.find_opt (fun x -> x.m_name = s.name) given with
              | Some x -> x
              | None -> m ~samples:0 s.name 0.0)
            layer_specs,
          List.map (fun (k, v) -> ("stage_us." ^ k, J.Float v)) t.stage_us )
  in
  { workload; attempted; failed; e2e; layers; notes = notes @ stage_notes }

let metrics_json ?(samples = true) specs metrics =
  J.Obj
    (List.map
       (fun mt ->
         ( mt.m_name,
           J.Obj
             ([ ("value", J.Float mt.m_value); ("unit", J.String (unit_of specs mt.m_name)) ]
             @ if samples then [ ("samples", J.Int mt.m_samples) ] else []) ))
       metrics)

let result_json r =
  J.Obj
    [
      ("correct", J.Bool (r.failed = 0));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("error_rate", J.Float (ratio (float_of_int r.failed) (float_of_int r.attempted)));
      ("metrics", metrics_json e2e_specs r.e2e);
      ("per_layer", metrics_json layer_specs r.layers);
      ("notes", J.Obj r.notes);
    ]

(* The one-line summary BENCHMARK.json's command contract asks for: the
   end-to-end metrics untraced, the per-layer metrics traced. *)
let summary_line ~trace r =
  let specs, metrics = if trace then (layer_specs, r.layers) else (e2e_specs, r.e2e) in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (r.failed = 0));
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("metrics", metrics_json ~samples:false specs metrics);
       ])

let print_result r =
  let row specs mt =
    Printf.printf "%-17s %-38s %16.4f %-6s (n=%d)\n" r.workload mt.m_name mt.m_value
      (unit_of specs mt.m_name) mt.m_samples
  in
  List.iter (row e2e_specs) r.e2e;
  List.iter (row layer_specs) r.layers;
  Printf.printf "%-17s %-38s %16d/%d\n" r.workload "failed/attempted" r.failed r.attempted;
  List.iter
    (fun (k, v) -> Printf.printf "%-17s note %s = %s\n" r.workload k (J.to_string v))
    r.notes;
  flush stdout

(* --- Run configuration --------------------------------------------------------- *)

type cfg = { seed : int; seconds : float; trace : bool; smoke : bool }

(* Paths relative to the root of the repository, where the benchmark runs. *)
let golden_dir = Filename.concat "slifbench" "golden"
let work_dir = ".slifbench"  (* inputs, traces and results *)
let benchmark_json = "BENCHMARK.json"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Spans recorded per domain in the traced half; the Chrome trace holds
   the first [max_spans] of each domain, the library's own spans included. *)
let max_spans = 20_000

(* Run [window traced seconds] for the measured windows.  Traced, the
   traced half runs first, so per-layer counts start from the same point
   of every seeded trajectory; its spans go to
   [.slifbench/<workload>.trace.json] and the registry is cleared before
   the untraced half, which gives the end-to-end metrics. *)
let run_windows cfg ~workload window =
  let halves =
    if cfg.trace then [ (true, cfg.seconds /. 2.0); (false, cfg.seconds /. 2.0) ]
    else [ (false, cfg.seconds) ]
  in
  List.map
    (fun (traced, seconds) ->
      if traced then begin
        Slif_obs.Registry.set_max_events max_spans;
        Slif_obs.Registry.reset ();
        Slif_obs.Registry.enable ()
      end
      else Slif_obs.Registry.disable ();
      let w = window traced seconds in
      Slif_obs.Registry.disable ();
      if traced then begin
        Slif_obs.Trace.write_file (Filename.concat work_dir (workload ^ ".trace.json"));
        Slif_obs.Registry.reset ()
      end;
      (traced, w))
    halves

(* [f ()] under the span [bench.<name>] when [traced]; the prefix keeps
   the benchmark's spans apart from the library's own (which include a
   [vhdl.parse]). *)
let span traced name f = if traced then Slif_obs.Span.with_ ("bench." ^ name) f else f ()

(* A span [bench.<name>] timed by the caller, from [t0] to [t1] (us): a
   daemon request is asynchronous, so it cannot run under [Span.with_]. *)
let record_span name t0 t1 =
  let l = Slif_obs.Registry.local () in
  Slif_obs.Registry.push_event l
    {
      Slif_obs.Registry.ev_name = "bench." ^ name;
      ev_ts_ns = Int64.sub (Int64.of_float (t0 *. 1e3)) (Slif_obs.Registry.epoch_ns ());
      ev_dur_ns = Int64.of_float ((t1 -. t0) *. 1e3);
      ev_depth = 0;
      ev_dom = l.Slif_obs.Registry.dom;
      ev_args = [];
    }

(* --- Child processes ---------------------------------------------------------------- *)

let rec waitpid_retry pid =
  try Unix.waitpid [] pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Run this executable with [args]; return its stdout. *)
let run_self args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match waitpid_retry pid with
  | _, Unix.WEXITED 0 -> out
  | _ -> failwith (Printf.sprintf "child %s failed" (String.concat " " args))

let child_args cfg kind =
  [ "--child"; kind; "--seed"; string_of_int cfg.seed ]
  @ if cfg.smoke then [ "--smoke" ] else []

(* A setup measured in a fresh process, so it is as cold as a CLI run. *)
let cold_setup_s cfg kind = float_of_string (String.trim (run_self (child_args cfg kind)))

(* --- References ------------------------------------------------------------------ *)

let specs = Array.of_list Specs.Registry.all

type corpus_ref = { r_bv : int; r_c : int; r_md5 : string; r_estimate : string }

let estimate_golden name = Filename.concat golden_dir (Printf.sprintf "estimate-%s.txt" name)
let corpus_golden = Filename.concat golden_dir "corpus.txt"

(* References in [Specs.Registry.all] order. *)
let load_refs () =
  let rows =
    In_channel.with_open_text corpus_golden In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ name; bv; c; md5 ] -> Some (name, (int_of_string bv, int_of_string c, md5))
           | _ -> None)
  in
  Array.map
    (fun (s : Specs.Registry.spec) ->
      let bv, c, md5 = List.assoc s.spec_name rows in
      let estimate =
        In_channel.with_open_bin (estimate_golden s.spec_name) In_channel.input_all
      in
      { r_bv = bv; r_c = c; r_md5 = md5; r_estimate = estimate })
    specs

let v1_md5 slif = Digest.to_hex (Digest.string (Slif_store.Store.slif_to_string slif))

(* --- compile_corpus ---------------------------------------------------------------- *)

let compile_stages =
  [|
    "vhdl.parse";
    "vhdl.sem";
    "core.build";
    "core.annotate";
    "specsyn.alloc";
    "core.graph_make";
    "core.estimate";
  |]

(* One op: VHDL text -> annotated SLIF -> the [slif estimate] report on the
   processor+ASIC seed partition.  [st] receives a timestamp at each of
   the 8 stage boundaries; traced, each stage is also a span. *)
let compile_op ~traced st (spec : Specs.Registry.spec) =
  let stage k f =
    let v = span traced compile_stages.(k) f in
    st.(k + 1) <- now_us ();
    v
  in
  st.(0) <- now_us ();
  let design = stage 0 (fun () -> Vhdl.Parser.parse spec.source) in
  let sem = stage 1 (fun () -> Vhdl.Sem.build design) in
  let built = stage 2 (fun () -> Slif.Build.build sem) in
  let slif = stage 3 (fun () -> Slif.Annotate.run ~techs:Tech.Parts.all sem built) in
  let s = stage 4 (fun () -> Specsyn.Alloc.apply slif (Specsyn.Alloc.proc_asic ())) in
  let graph = stage 5 (fun () -> Slif.Graph.make s) in
  let est, report =
    stage 6 (fun () ->
        let est = Specsyn.Search.estimator graph (Specsyn.Search.seed_partition s) in
        ( est,
          "all-software partition (everything on the cpu):\n"
          ^ Specsyn.Report.partition_report est
          ^ "\n" ))
  in
  (slif, report, est)

(* BV/C (the Figure 4 counts), the v1 store encoding and the report. *)
let check_compile (r : corpus_ref) (slif, report, _) =
  let stats = Slif.Stats.of_slif slif in
  stats.Slif.Stats.bv = r.r_bv
  && stats.Slif.Stats.channels = r.r_c
  && report = r.r_estimate
  && v1_md5 slif = r.r_md5

let shuffled rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Slif_util.Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The cold first pass, in a fresh process: what every CLI run pays.  Its
   outputs are the ones the measured loop checks. *)
let child_cold_compile cfg =
  let order = shuffled (Slif_util.Prng.create cfg.seed) (Array.length specs) in
  let st = Array.make 8 0.0 in
  let t0 = now_us () in
  Array.iter (fun i -> ignore (compile_op ~traced:false st specs.(i))) order;
  Printf.printf "%.17g\n" ((now_us () -. t0) /. 1e6)

let compile_corpus cfg =
  let refs = load_refs () in
  let setups =
    List.init (if cfg.smoke then 1 else 11) (fun _ -> cold_setup_s cfg "cold-compile")
  in
  let rng = Slif_util.Prng.create cfg.seed in
  let st = Array.make 8 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let n_stages = Array.length compile_stages in
  let window traced seconds =
    let lat = Samples.create () and rate = Rate.create 0.5e6 in
    let stage = Array.make n_stages 0.0 in
    let hits = ref 0 and queries = ref 0 and checking = ref 0.0 in
    let tokens0 = Slif_obs.Counter.get "parse.tokens" in
    let words0, majors0 = gc_counts () in
    let t_start = now_us () in
    let t_end = t_start +. (seconds *. 1e6) in
    while now_us () < t_end do
      Array.iter
        (fun i ->
          incr attempted;
          match span traced "compile.op" (fun () -> compile_op ~traced st specs.(i)) with
          | (_, _, est) as out ->
              Samples.add lat (st.(7) -. st.(0));
              Rate.add rate ~ops:1 ~us:(st.(7) -. st.(0));
              for k = 0 to n_stages - 1 do
                stage.(k) <- stage.(k) +. (st.(k + 1) -. st.(k))
              done;
              hits := !hits + Slif.Estimate.stats_cache_hits est;
              queries := !queries + Slif.Estimate.stats_queries est;
              let c0 = now_us () in
              if not (check_compile refs.(i) out) then incr failed;
              checking := !checking +. (now_us () -. c0)
          | exception _ -> incr failed)
        (shuffled rng (Array.length specs))
    done;
    let wall = now_us () -. t_start in
    let n = Samples.count lat in
    let busy = Samples.sum lat in
    let words1, majors1 = gc_counts () in
    let tokens = Slif_obs.Counter.get "parse.tokens" - tokens0 in
    {
      lat;
      rate;
      words_per_op = (words1 -. words0) /. float_of_int (max 1 n);
      majors = float_of_int (majors1 - majors0);
      layer =
        List.init n_stages (fun k ->
            m ~samples:n (compile_stages.(k) ^ "_bp") (bp stage.(k) busy))
        @ [
            m ~samples:n "core.estimate.memo_hit_ratio"
              (ratio (float_of_int !hits) (float_of_int !queries));
            (* The stages' share of the loop's wall time, reference
               checks excluded: what the named stages leave unexplained. *)
            m ~samples:n "compile.coverage_bp"
              (bp (Array.fold_left ( +. ) 0.0 stage) (wall -. !checking));
            m ~samples:n "vhdl.tokens_per_s" (float_of_int tokens /. (stage.(0) /. 1e6));
          ];
      stage_us =
        Array.to_list
          (Array.mapi (fun k s -> (s, stage.(k) /. float_of_int (max 1 n))) compile_stages);
    }
  in
  let windows = run_windows cfg ~workload:"compile_corpus" window in
  compose ~workload:"compile_corpus" ~setups ~rss:(peak_rss_mb None) ~attempted:!attempted
    ~failed:!failed ~notes:[] windows

(* --- explore_ether ----------------------------------------------------------------- *)

let explore_algos cfg =
  let sa steps = Specsyn.Explore.Annealing { Specsyn.Annealing.default_params with steps } in
  if cfg.smoke then Specsyn.Explore.[ Random 20; Greedy; sa 150; Clustering 4 ]
  else Specsyn.Explore.[ Random 200; Greedy; Group_migration; sa 2000; Clustering 4 ]

(* The seed draws both deadlines from [1500, 2500] us. *)
let explore_constraints seed =
  let rng = Slif_util.Prng.create seed in
  let tx = 1500.0 +. Slif_util.Prng.float rng 1000.0 in
  let rx = 1500.0 +. Slif_util.Prng.float rng 1000.0 in
  { Specsyn.Cost.deadlines_us = [ ("txctl", tx); ("rxctl", rx) ] }

let ether_source () = (Specs.Registry.find_exn "ether").source

let sweep cfg ~jobs slif =
  Specsyn.Explore.run ~jobs ~constraints:(explore_constraints cfg.seed)
    ~algos:(explore_algos cfg)
    ~allocs:[ Specsyn.Alloc.proc_asic (); Specsyn.Alloc.proc_asic_mem () ]
    slif

let entries_digest entries =
  Digest.string (Specsyn.Report.explore_report ~timings:false entries)

(* Annotate ether plus the cold first sweep, in a fresh process. *)
let child_cold_explore cfg =
  let t0 = now_us () in
  let slif = Slif_server.Ops.annotated (ether_source ()) in
  ignore (sweep cfg ~jobs:2 slif);
  Printf.printf "%.17g\n" ((now_us () -. t0) /. 1e6)

(* Each entry's cost re-scored by the Cost.evaluate oracle on a fresh
   estimator; the number that differ in any bit. *)
let rescore_mismatches cfg slif entries =
  let constraints = explore_constraints cfg.seed in
  List.fold_left
    (fun bad (e : Specsyn.Explore.entry) ->
      let s = Specsyn.Alloc.apply slif e.alloc in
      let est = Specsyn.Search.estimator (Slif.Graph.make s) e.solution.part in
      let total = (Specsyn.Cost.evaluate ~constraints est).Specsyn.Cost.total in
      if Int64.bits_of_float total = Int64.bits_of_float e.solution.cost then bad else bad + 1)
    0 entries

let algo_key = function
  | Specsyn.Explore.Random _ -> "random"
  | Greedy -> "greedy"
  | Group_migration -> "gm"
  | Annealing _ -> "sa"
  | Clustering _ -> "cluster"

let explore_ether cfg =
  let setups =
    List.init (if cfg.smoke then 1 else 3) (fun _ -> cold_setup_s cfg "cold-explore")
  in
  let slif = Slif_server.Ops.annotated (ether_source ()) in
  (* The -j 1 sweep is the reference every -j 2 sweep must match. *)
  let reference = sweep cfg ~jobs:1 slif in
  let ref_digest = entries_digest reference in
  let n_entries = List.length reference in
  let attempted = ref n_entries and failed = ref (rescore_mismatches cfg slif reference) in
  let counter = Slif_obs.Counter.get in
  let hist_sum name =
    match Slif_obs.Histogram.summary name with Some s -> s.Slif_obs.Histogram.sum | None -> 0.0
  in
  let window traced seconds =
    let lat = Samples.create () and rate = Rate.create 0.0 in
    let entry_s = ref 0.0 in
    let per_algo = Hashtbl.create 8 in
    let tasks () = (Slif_util.Pool.global_stats ()).Slif_util.Pool.g_tasks_submitted in
    let tasks0 = tasks () in
    let c0 =
      List.map
        (fun k -> (k, counter k))
        [
          "estimate.memo_hit"; "estimate.memo_miss"; "engine.moves_rolled_back";
          "engine.moves_proposed";
        ]
    in
    let wait0 = hist_sum "pool.task_queue_wait_us" and run0 = hist_sum "pool.task_run_us" in
    let words0, majors0 = gc_counts () in
    let t_start = now_us () in
    let t_end = t_start +. (seconds *. 1e6) in
    while now_us () < t_end do
      attempted := !attempted + n_entries;
      let t0 = now_us () in
      match span traced "explore.sweep" (fun () -> sweep cfg ~jobs:2 slif) with
      | entries ->
          let t1 = now_us () in
          Samples.add lat (t1 -. t0);
          let designs = ref 0 in
          List.iter
            (fun (e : Specsyn.Explore.entry) ->
              let d = e.solution.Specsyn.Search.evaluated in
              designs := !designs + d;
              entry_s := !entry_s +. e.elapsed_s;
              let k = algo_key e.algo in
              let d0, s0 = Option.value (Hashtbl.find_opt per_algo k) ~default:(0, 0.0) in
              Hashtbl.replace per_algo k (d0 + d, s0 +. e.elapsed_s))
            entries;
          Rate.add rate ~ops:!designs ~us:(t1 -. t0);
          if entries_digest entries <> ref_digest then failed := !failed + n_entries
      | exception _ -> failed := !failed + n_entries
    done;
    let wall_s = (now_us () -. t_start) /. 1e6 in
    let sweeps = Samples.count lat in
    let words1, majors1 = gc_counts () in
    let delta k = float_of_int (counter k - List.assoc k c0) in
    let algo_rate k =
      match Hashtbl.find_opt per_algo k with
      | Some (d, s) when s > 0.0 -> float_of_int d /. s
      | _ -> 0.0
    in
    let algos = [ "random"; "greedy"; "gm"; "sa"; "cluster" ] in
    {
      lat;
      rate;
      words_per_op = (words1 -. words0) /. float_of_int (max 1 rate.Rate.total);
      majors = float_of_int (majors1 - majors0);
      layer =
        List.map
          (fun k -> m (Printf.sprintf "specsyn.explore.%s.designs_per_s" k) (algo_rate k))
          algos
        @ [
            m "core.estimate.memo_hit_ratio"
              (ratio (delta "estimate.memo_hit")
                 (delta "estimate.memo_hit" +. delta "estimate.memo_miss"));
            m "specsyn.engine.rollback_ratio"
              (ratio (delta "engine.moves_rolled_back") (delta "engine.moves_proposed"));
            m ~samples:sweeps "util.pool.tasks_per_op"
              (ratio (float_of_int (tasks () - tasks0)) (float_of_int sweeps));
            m "util.pool.queue_wait_bp"
              (bp
                 (hist_sum "pool.task_queue_wait_us" -. wait0)
                 (hist_sum "pool.task_run_us" -. run0));
            m ~samples:sweeps "util.pool.busy_ratio" (ratio !entry_s (2.0 *. wall_s));
          ];
      stage_us =
        List.map
          (fun k ->
            ( "explore." ^ k,
              match Hashtbl.find_opt per_algo k with
              | Some (_, s) -> s *. 1e6 /. float_of_int (max 1 sweeps)
              | None -> 0.0 ))
          algos;
    }
  in
  let windows = run_windows cfg ~workload:"explore_ether" window in
  let c = explore_constraints cfg.seed in
  compose ~workload:"explore_ether" ~setups ~rss:(peak_rss_mb None) ~attempted:!attempted
    ~failed:!failed
    ~notes:
      (List.map (fun (p, d) -> ("deadline_us." ^ p, J.Float d)) c.Specsyn.Cost.deadlines_us)
    windows

(* --- moves_synth_100k ------------------------------------------------------------------ *)

(* The graph is fixed (the synthetic seed of bench/main.ml's A12); the
   benchmark seed drives the move trajectory.  Graphs drawn from other
   seeds differ in shape enough to move the per-move cost by 2x, which
   would swamp any change the workload is meant to show. *)
let synth_seed = 7
let synth_nodes cfg = if cfg.smoke then 10_000 else 100_000
let synth_path cfg =
  Filename.concat work_dir (Printf.sprintf "synth-%d.slifstore" (synth_nodes cfg))

(* Input preparation, in a child process so its heap never counts toward
   the working process's peak RSS. *)
let child_synth_prep cfg =
  let p =
    Slif_synth.Synth.default_params ~seed:synth_seed ~nodes:(synth_nodes cfg)
      Slif_synth.Synth.Mixed
  in
  Slif_store.Store.save_slif ~path:(synth_path cfg) ~version:2 (Slif_synth.Synth.generate p)

let ok_or_fail = function
  | Ok v -> v
  | Error err -> failwith (Slif_store.Store.error_message err)

(* open -> decode -> graph -> engine; the engine and the four stage times
   in seconds. *)
let moves_setup path =
  let t0 = now_us () in
  let handle = ok_or_fail (Slif_store.Lazy_store.open_file path) in
  let t1 = now_us () in
  let slif, _ = ok_or_fail (Slif_store.Lazy_store.slif handle) in
  let t2 = now_us () in
  let graph = Slif.Graph.make slif in
  let t3 = now_us () in
  let engine = Specsyn.Engine.create graph (Specsyn.Search.seed_partition slif) in
  let t4 = now_us () in
  (engine, Array.map (fun d -> d /. 1e6) [| t1 -. t0; t2 -. t1; t3 -. t2; t4 -. t3 |])

let moves_synth cfg =
  ignore (run_self (child_args cfg "synth-prep"));
  let path = synth_path cfg in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let reps = if cfg.smoke then 1 else 7 in
  (* Only the last set-up engine stays alive, so peak RSS is one graph's. *)
  let rec set_up k times =
    Gc.full_major ();
    let engine, st = moves_setup path in
    if k = 1 then (engine, List.rev (st :: times)) else set_up (k - 1) (st :: times)
  in
  let engine, setup_times = set_up reps [] in
  let setups = List.map (Array.fold_left ( +. ) 0.0) setup_times in
  let setup_stage k = median (List.map (fun st -> st.(k)) setup_times) in
  let est = Specsyn.Engine.estimate engine in
  let move_rng = Slif_util.Prng.create cfg.seed in
  let commit_rng = Slif_util.Prng.create (cfg.seed + 1) in
  (* The first [fixed] moves of a trajectory are the same on every run
     with this seed: the exact counters are taken over them. *)
  let fixed = if cfg.smoke then 100 else 1_200 in
  (* Every [episode] moves the engine re-acquires the seed partition
     (untimed), like a search restart.  One long trajectory drifts into
     states whose moves cost 2x more or less depending on the seed; short
     episodes sample the same mix of states on every run. *)
  let episode = 100 in
  let seed_slif = Slif.Graph.slif (Specsyn.Engine.graph engine) in
  let restart () = Specsyn.Engine.acquire engine (Specsyn.Search.seed_partition seed_slif) in
  let moves = ref 0 and attempted = ref 0 and failed = ref 0 in
  let window traced seconds =
    let lat = Samples.create () and propose = Samples.create () and rate = Rate.create 0.5e6 in
    let commit = Samples.create () and rollback = Samples.create () in
    let draw_us = ref 0.0 and draws = ref 0 and noops = ref 0 in
    let q0 = Slif.Estimate.stats_queries est and h0 = Slif.Estimate.stats_cache_hits est in
    let q_fixed = ref None in
    let words0, majors0 = gc_counts () in
    let t_end = now_us () +. (seconds *. 1e6) in
    let rec draw () =
      incr draws;
      match Specsyn.Engine.random_move engine move_rng with
      | Some mv -> mv
      | None ->
          incr noops;
          draw ()
    in
    while now_us () < t_end || (traced && !moves < fixed) do
      incr attempted;
      let t0 = now_us () in
      match span traced "specsyn.random_move" draw with
      | exception _ -> incr failed
      | mv -> (
          let t1 = now_us () in
          match span traced "specsyn.propose" (fun () -> Specsyn.Engine.propose engine mv) with
          | exception _ -> incr failed
          | _ ->
              let t2 = now_us () in
              let keep = Slif_util.Prng.int commit_rng 4 = 0 in
              if keep then span traced "specsyn.commit" (fun () -> Specsyn.Engine.commit engine)
              else span traced "specsyn.rollback" (fun () -> Specsyn.Engine.rollback engine);
              let t3 = now_us () in
              incr moves;
              if !moves = fixed then q_fixed := Some (Slif.Estimate.stats_queries est);
              Samples.add lat (t3 -. t0);
              Rate.add rate ~ops:1 ~us:(t3 -. t0);
              draw_us := !draw_us +. (t1 -. t0);
              Samples.add propose (t2 -. t1);
              Samples.add (if keep then commit else rollback) (t3 -. t2);
              if !moves mod episode = 0 then restart ())
    done;
    let n = Samples.count lat in
    let wall = Samples.sum lat in
    let words1, majors1 = gc_counts () in
    let queries = Slif.Estimate.stats_queries est - q0 in
    let per_op s = Samples.sum s /. float_of_int (max 1 (Samples.count s)) in
    let tail s = ratio (quantile s 0.99) (quantile s 0.5) in
    let setup_wall = median setups in
    {
      lat;
      rate;
      words_per_op = (words1 -. words0) /. float_of_int (max 1 n);
      majors = float_of_int (majors1 - majors0);
      layer =
        [
          m ~samples:reps "store.open_bp" (bp (setup_stage 0) setup_wall);
          m ~samples:reps "store.decode_bp" (bp (setup_stage 1) setup_wall);
          m ~samples:reps "core.setup_graph_make_bp" (bp (setup_stage 2) setup_wall);
          m ~samples:reps "specsyn.engine_create_bp" (bp (setup_stage 3) setup_wall);
          m ~samples:n "specsyn.random_move_bp" (bp !draw_us wall);
          m ~samples:(Samples.count propose) "specsyn.propose_bp"
            (bp (Samples.sum propose) wall);
          m ~samples:(Samples.count commit) "specsyn.commit_bp" (bp (Samples.sum commit) wall);
          m ~samples:(Samples.count rollback) "specsyn.rollback_bp"
            (bp (Samples.sum rollback) wall);
          m ~samples:(Samples.count propose) "specsyn.propose_tail_ratio" (tail propose);
          m ~samples:(Samples.count rollback) "specsyn.rollback_tail_ratio" (tail rollback);
          m ~samples:fixed "core.estimate.queries_per_move"
            (match !q_fixed with
            | Some q -> float_of_int (q - q0) /. float_of_int fixed
            | None -> ratio (float_of_int queries) (float_of_int n));
          m ~samples:n "core.estimate.memo_hit_ratio"
            (ratio
               (float_of_int (Slif.Estimate.stats_cache_hits est - h0))
               (float_of_int queries));
          m ~samples:n "specsyn.noop_draw_ratio"
            (ratio (float_of_int !noops) (float_of_int !draws));
        ];
      stage_us =
        [
          ("setup.store_open", setup_stage 0 *. 1e6);
          ("setup.store_decode", setup_stage 1 *. 1e6);
          ("setup.graph_make", setup_stage 2 *. 1e6);
          ("setup.engine_create", setup_stage 3 *. 1e6);
          ("specsyn.random_move", !draw_us /. float_of_int (max 1 n));
          ("specsyn.propose", per_op propose);
          ("specsyn.propose_p99", quantile propose 0.99);
          ("specsyn.commit", per_op commit);
          ("specsyn.rollback", per_op rollback);
          ("specsyn.rollback_p99", quantile rollback 0.99);
        ];
    }
  in
  let windows = run_windows cfg ~workload:"moves_synth_100k" window in
  (* The engine's maintained cost must equal the Cost.total oracle on a
     fresh estimator, bit for bit. *)
  incr attempted;
  let oracle =
    Specsyn.Cost.total ~constraints:Specsyn.Cost.no_constraints
      (Specsyn.Search.estimator (Specsyn.Engine.graph engine)
         (Slif.Partition.copy (Specsyn.Engine.partition engine)))
  in
  if Int64.bits_of_float oracle <> Int64.bits_of_float (Specsyn.Engine.cost engine) then
    incr failed;
  compose ~workload:"moves_synth_100k" ~setups ~rss:(peak_rss_mb None) ~attempted:!attempted
    ~failed:!failed
    ~notes:[ ("nodes", J.Int (synth_nodes cfg)); ("moves", J.Int !moves) ]
    windows

(* --- daemon_mixed --------------------------------------------------------------------- *)

(* The [slif] CLI, built by dune beside this executable. *)
let slif_exe () =
  let path =
    List.fold_left Filename.concat (Filename.dirname Sys.executable_name)
      [ ".."; "bin"; "slif_cli.exe" ]
  in
  if Sys.file_exists path then path
  else failwith (path ^ " not found (build bin/slif_cli.exe with dune)")

type daemon = { pid : int; port : int }

let rec select_retry r w timeout =
  try Unix.select r w [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry r w timeout

(* First stdout line of the daemon: "listening on 127.0.0.1:<port>". *)
let read_banner fd =
  let buf = Buffer.create 64 and b = Bytes.create 1 in
  let deadline = now_us () +. 30e6 in
  let rec loop () =
    let left = (deadline -. now_us ()) /. 1e6 in
    if left <= 0.0 then failwith "daemon banner timed out"
    else
      match select_retry [ fd ] [] left with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read fd b 0 1 with
          | 0 -> Buffer.contents buf
          | _ when Bytes.get b 0 = '\n' -> Buffer.contents buf
          | _ ->
              Buffer.add_char buf (Bytes.get b 0);
              loop ())
  in
  loop ()

(* Reap [pid], killing it if it has not exited [grace_s] after the ask. *)
let reap ?(grace_s = 10.0) pid =
  let deadline = now_us () +. (grace_s *. 1e6) in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_us () < deadline ->
        Unix.sleepf 0.01;
        poll ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_retry pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  poll ()

(* [slif serve] on loopback TCP; its temp files stay in the work dir. *)
let spawn_daemon () =
  let exe = slif_exe () in
  let env =
    Array.append
      [| "TMPDIR=" ^ Filename.concat (Sys.getcwd ()) work_dir |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"TMPDIR=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--port"; "0"; "--workers"; "2"; "--lru"; "8" |]
      env Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let banner = try read_banner r with e -> Unix.close r; reap ~grace_s:0.0 pid; raise e in
  Unix.close r;
  match String.rindex_opt banner ':' with
  | Some i ->
      { pid; port = int_of_string (String.sub banner (i + 1) (String.length banner - i - 1)) }
  | None ->
      reap ~grace_s:0.0 pid;
      failwith ("unexpected daemon banner: " ^ banner)

let control d line =
  let c = Slif_server.Client.connect_tcp ~timeout_ms:30_000 d.port in
  Fun.protect
    ~finally:(fun () -> Slif_server.Client.close c)
    (fun () -> Slif_server.Client.request_raw c line)

let stop_daemon d =
  (try ignore (control d {|{"op":"shutdown"}|}) with _ -> ());
  reap d.pid

let ok_line line = String.starts_with ~prefix:{|{"ok":true|} line

(* Spawn -> banner -> four priming loads answered: what a daemon user
   waits for before the first resident answer. *)
let daemon_setup () =
  let t0 = now_us () in
  let d = spawn_daemon () in
  match
    Array.iter
      (fun (s : Specs.Registry.spec) ->
        let reply = control d (Printf.sprintf {|{"op":"load","spec":"%s"}|} s.spec_name) in
        if not (ok_line reply) then failwith ("priming load failed: " ^ reply))
      specs
  with
  | () -> (d, (now_us () -. t0) /. 1e6)
  | exception e ->
      stop_daemon d;
      raise e

let json_escaped s =
  let q = J.to_string (J.String s) in
  String.sub q 1 (String.length q - 2)

type req = { due : float; spec_i : int; miss : bool; sent : float }

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (** request bytes not yet written *)
  mutable off : int;
  inbuf : Buffer.t;
  pending : req Queue.t;
  mutable alive : bool;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  {
    fd;
    out = Buffer.create 65536;
    off = 0;
    inbuf = Buffer.create 65536;
    pending = Queue.create ();
    alive = true;
  }

let flush_conn c =
  let len = Buffer.length c.out - c.off in
  if c.alive && len > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) c.off len with
    | n ->
        c.off <- c.off + n;
        if c.off = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.alive <- false

(* The request mix: 95% resident reads by spec name, 5% misses whose
   source text carries a unique comment line (compile, insert, evict).
   The mix is chosen to cover both paths, not measured from users: no
   trace of real daemon traffic exists.  5% of a 14 s window at
   1000 req/s is ~700 misses, enough for a miss p99, while hits still
   set the medians. *)
type mix = {
  rng : Slif_util.Prng.t;
  hit_lines : string array;
  miss_prefix : string array;
  expected_suffix : string array;  (** how a correct reply line ends *)
  expected : string array;  (** the pinned [estimate] output *)
  variant_tag : string;
  mutable serial : int;
  miss_pct : int;
}

let make_mix cfg refs =
  {
    rng = Slif_util.Prng.create cfg.seed;
    hit_lines =
      Array.map
        (fun (s : Specs.Registry.spec) ->
          Printf.sprintf {|{"op":"estimate","spec":"%s"}|} s.spec_name ^ "\n")
        specs;
    miss_prefix =
      Array.map
        (fun (s : Specs.Registry.spec) ->
          {|{"op":"estimate","source":"|} ^ json_escaped s.source)
        specs;
    expected_suffix =
      Array.map (fun r -> {|,"output":"|} ^ json_escaped r.r_estimate ^ {|"}|}) refs;
    expected = Array.map (fun r -> r.r_estimate) refs;
    variant_tag = string_of_int cfg.seed;
    serial = 0;
    miss_pct = 5;
  }

let issue mix c due =
  let spec_i = Slif_util.Prng.int mix.rng (Array.length specs) in
  let miss = Slif_util.Prng.int mix.rng 100 < mix.miss_pct in
  if miss then begin
    mix.serial <- mix.serial + 1;
    Buffer.add_string c.out mix.miss_prefix.(spec_i);
    Buffer.add_string c.out
      (json_escaped (Printf.sprintf "\n-- variant %s-%d\n" mix.variant_tag mix.serial));
    Buffer.add_string c.out "\"}\n"
  end
  else Buffer.add_string c.out mix.hit_lines.(spec_i);
  Queue.push { due; spec_i; miss; sent = now_us () } c.pending;
  flush_conn c

let reply_ok mix r line =
  (ok_line line && String.ends_with ~suffix:mix.expected_suffix.(r.spec_i) line)
  ||
  match J.parse line with
  | Ok j -> (
      J.member "ok" j = Some (J.Bool true)
      &&
      match J.member "output" j with
      | Some (J.String o) -> o = mix.expected.(r.spec_i)
      | _ -> false)
  | Error _ -> false

let chunk = Bytes.create 65536

(* Read what is available on [c]; hand each complete reply line, with the
   request it answers, to [on_reply]. *)
let read_conn c on_reply =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.alive <- false
  | n ->
      Buffer.add_subbytes c.inbuf chunk 0 n;
      let text = Buffer.contents c.inbuf in
      let rec lines start =
        match String.index_from_opt text start '\n' with
        | None -> start
        | Some nl ->
            (match Queue.take_opt c.pending with
            | Some r -> on_reply r (String.sub text start (nl - start))
            | None -> c.alive <- false);
            lines (nl + 1)
      in
      let rest = lines 0 in
      Buffer.clear c.inbuf;
      Buffer.add_substring c.inbuf text rest (String.length text - rest)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.alive <- false

(* One select-multiplexed event loop over both connections.  [tick now]
   issues what is due and returns the select timeout; the loop ends when
   [finished now] holds. *)
let event_loop conns ~tick ~on_reply ~finished =
  let rec loop () =
    let now = now_us () in
    if not (finished now) then begin
      let timeout = tick now in
      let live = List.filter (fun c -> c.alive) conns in
      let reads = List.map (fun c -> c.fd) live in
      let writes =
        List.filter_map (fun c -> if Buffer.length c.out > c.off then Some c.fd else None) live
      in
      let readable, writable, _ = select_retry reads writes timeout in
      List.iter
        (fun c ->
          if List.memq c.fd writable then flush_conn c;
          if c.alive && List.memq c.fd readable then read_conn c (on_reply c))
        live;
      loop ()
    end
  in
  loop ()

type phase = {
  lat : Samples.t;  (** due -> reply *)
  hit_rtt : Samples.t;  (** written -> reply *)
  miss_rtt : Samples.t;
  lag : Samples.t;  (** due -> written: how late the generator ran *)
  mutable completed : int;
  mutable issued : int;
  mutable bad : int;
}

let new_phase () =
  {
    lat = Samples.create ();
    hit_rtt = Samples.create ();
    miss_rtt = Samples.create ();
    lag = Samples.create ();
    completed = 0;
    issued = 0;
    bad = 0;
  }

(* Replies still missing this long after the window count as failed. *)
let grace_us = 10e6

let record ~traced ph mix r line =
  let now = now_us () in
  ph.completed <- ph.completed + 1;
  Samples.add ph.lat (now -. r.due);
  Samples.add (if r.miss then ph.miss_rtt else ph.hit_rtt) (now -. r.sent);
  Samples.add ph.lag (r.sent -. r.due);
  if traced then begin
    record_span (if r.miss then "daemon.miss" else "daemon.hit") r.due now;
    record_span "client.lag" r.due r.sent
  end;
  if not (reply_ok mix r line) then ph.bad <- ph.bad + 1

let all_answered conns = List.for_all (fun c -> Queue.is_empty c.pending) conns

(* The paced phase: an open loop at [rate] req/s, alternating
   connections; each request is timed from the moment it was due. *)
let open_loop ~traced conns mix ~rate ~seconds =
  let ph = new_phase () in
  let carr = Array.of_list conns in
  let period = 1e6 /. rate in
  let total = max 1 (int_of_float (seconds *. rate)) in
  let t0 = now_us () in
  let due k = t0 +. (float_of_int k *. period) in
  let tick now =
    while ph.issued < total && due ph.issued <= now do
      let c = carr.(ph.issued mod Array.length carr) in
      if c.alive then issue mix c (due ph.issued);
      ph.issued <- ph.issued + 1
    done;
    if ph.issued < total then Float.max 0.0 ((due ph.issued -. now_us ()) /. 1e6) else 0.05
  in
  event_loop conns ~tick
    ~on_reply:(fun _ r line -> record ~traced ph mix r line)
    ~finished:(fun now ->
      (ph.issued >= total && all_answered conns) || now > due total +. grace_us);
  ph

(* The capacity phase: a closed loop, [depth] requests outstanding per
   connection; the completions inside the window give the rate. *)
let closed_loop ~traced conns mix ~depth ~seconds =
  let ph = new_phase () in
  let t_start = now_us () in
  let t_end = t_start +. (seconds *. 1e6) in
  let in_window = Rate.create 0.5e6 and last = ref t_start in
  let send c =
    if c.alive then begin
      issue mix c (now_us ());
      ph.issued <- ph.issued + 1
    end
  in
  List.iter (fun c -> for _ = 1 to depth do send c done) conns;
  event_loop conns
    ~tick:(fun now -> Float.max 0.0 (Float.min 0.05 ((t_end -. now) /. 1e6)))
    ~on_reply:(fun c r line ->
      record ~traced ph mix r line;
      let now = now_us () in
      if now <= t_end then begin
        Rate.add in_window ~ops:1 ~us:(now -. !last);
        last := now;
        send c
      end)
    ~finished:(fun now -> (now > t_end && all_answered conns) || now > t_end +. grace_us);
  (ph, in_window)

(* Server-side counters, read through the daemon's own [stats] and
   [metrics] ops outside the measured phases. *)
type server_snap = { stats : J.t; prom : (string, float) Hashtbl.t }

let parse_or_fail line = match J.parse line with Ok j -> j | Error e -> failwith e

let snapshot d =
  let prom = Hashtbl.create 256 in
  (match J.member "output" (parse_or_fail (control d {|{"op":"metrics"}|})) with
  | Some (J.String text) ->
      List.iter
        (fun line ->
          match String.rindex_opt line ' ' with
          | Some i when line.[0] <> '#' -> (
              let value = String.sub line (i + 1) (String.length line - i - 1) in
              match float_of_string_opt value with
              | Some v -> Hashtbl.replace prom (String.sub line 0 i) v
              | None -> ())
          | _ -> ())
        (String.split_on_char '\n' text)
  | _ -> failwith "metrics: no output");
  { stats = parse_or_fail (control d {|{"op":"stats"}|}); prom }

let num = function J.Int i -> float_of_int i | J.Float f -> f | _ -> nan

let stat snap path =
  let rec go j = function
    | [] -> num j
    | k :: rest -> ( match J.member k j with Some v -> go v rest | None -> nan)
  in
  go snap.stats path

let prom snap key = Option.value (Hashtbl.find_opt snap.prom key) ~default:0.0

let daemon_mixed cfg =
  let refs = load_refs () in
  (* One set-up takes 15-60 ms, most of it the first two loads (5 ms each
     with one worker, 5-25 ms with two), and a slow spell of the host
     slows seconds of them together.  So 21 set-ups are spread over
     the run, 11 before the measured phases (the last one is the daemon
     measured) and 10 after, and setup_s is their median. *)
  let spread = if cfg.smoke then 0 else 10 in
  let set_ups k =
    List.init k (fun _ ->
        let d, s = daemon_setup () in
        stop_daemon d;
        s)
  in
  (* A daemon that drops a connection must cost failed requests, not the
     client process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let early = set_ups spread in
  let d, s = daemon_setup () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let mix = make_mix cfg refs in
  let open_conns () = [ connect d.port; connect d.port ] in
  let conns = ref (open_conns ()) in
  (* About 30% of the capacity the closed phase measures (~3300 req/s on
     2 vCPUs), so the paced latencies are not queueing.  Like the mix, a
     choice, not a measured user rate. *)
  let rate = if cfg.smoke then 200.0 else 1000.0 in
  let attempted = ref 0 and failed = ref 0 in
  (* A request unanswered by the end of its phase counts as failed.  Its
     reply may still arrive, and would be paired with the next request
     sent on that connection, so then both connections are replaced. *)
  let settle ph =
    attempted := !attempted + ph.issued;
    failed := !failed + ph.bad + (ph.issued - ph.completed);
    if not (all_answered !conns && List.for_all (fun c -> c.alive) !conns) then begin
      List.iter (fun c -> Unix.close c.fd) !conns;
      conns := open_conns ()
    end
  in
  let window traced seconds =
    (* Capacity first, from the primed resident set: misses leave the
       LRU (and so the daemon's heap) in a seed-dependent state that moves
       a closed loop's rate by 15-20% from seed to seed. *)
    let capacity, in_window =
      closed_loop ~traced !conns { mix with miss_pct = 0 } ~depth:16
        ~seconds:(0.3 *. seconds)
    in
    settle capacity;
    let before = snapshot d in
    let paced = open_loop ~traced !conns mix ~rate ~seconds:(0.7 *. seconds) in
    settle paced;
    let after = snapshot d in
    let dstat path = stat after path -. stat before path in
    let dprom key = prom after key -. prom before key in
    let requests = dstat [ "requests" ] in
    let hit_p50 = quantile paced.hit_rtt 0.5 in
    let srv_p50 = stat after [ "latency_us"; "estimate"; "p50" ] in
    let srv_p99 = stat after [ "latency_us"; "estimate"; "p99" ] in
    let mean family labels =
      ratio (dprom (family ^ "_sum" ^ labels)) (dprom (family ^ "_count" ^ labels))
    in
    let queue_us = mean "slif_server_queue_wait_microseconds" "" in
    let exec_us = mean "slif_server_request_duration_microseconds" {|{op="estimate"}|} in
    let lru_hits = dstat [ "lru"; "hits" ] and lru_misses = dstat [ "lru"; "misses" ] in
    let n = Samples.count paced.lat in
    let late =
      Array.fold_left (fun acc l -> if l > 1000.0 then acc + 1 else acc) 0
        (Samples.sorted paced.lag)
    in
    let q s p = quantile s p in
    {
      lat = paced.lat;
      rate = in_window;
      words_per_op = ratio (dstat [ "gc"; "minor_words" ]) requests;
      majors = dstat [ "gc"; "major_collections" ];
      layer =
        [
          m ~samples:(Samples.count paced.miss_rtt) "client.rtt_miss_over_hit"
            (ratio (q paced.miss_rtt 0.5) hit_p50);
          m ~samples:(Samples.count paced.hit_rtt) "client.rtt_hit_tail_ratio"
            (ratio (q paced.hit_rtt 0.99) hit_p50);
          m ~samples:n "client.late_ratio" (ratio (float_of_int late) (float_of_int n));
          m ~samples:(Samples.count paced.hit_rtt) "server.wire_residual_bp"
            (bp (hit_p50 -. srv_p50) hit_p50);
          m "server.queue_wait_bp" (bp queue_us exec_us);
          m "server.tail_ratio" (ratio srv_p99 srv_p50);
          m "server.lru_hit_ratio" (ratio lru_hits (lru_hits +. lru_misses));
          m "server.loop_iterations_per_req"
            (ratio (dprom "slif_server_loop_iterations_total") requests);
        ];
      stage_us =
        [
          ("client.rtt_hit_p50", hit_p50);
          ("client.rtt_hit_p99", q paced.hit_rtt 0.99);
          ("client.rtt_miss_p50", q paced.miss_rtt 0.5);
          ("client.rtt_miss_p99", q paced.miss_rtt 0.99);
          ("client.lag_p99", q paced.lag 0.99);
          ("client.lag_max", q paced.lag 1.0);
          ("server.request_p50", srv_p50);
          ("server.request_p99", srv_p99);
          ("server.queue_wait_mean", queue_us);
          ("server.wire_residual_p50", hit_p50 -. srv_p50);
        ];
    }
  in
  let windows = run_windows cfg ~workload:"daemon_mixed" window in
  let rss = peak_rss_mb (Some d.pid) in
  List.iter (fun c -> Unix.close c.fd) !conns;
  let setups = (s :: early) @ set_ups spread in
  let u = List.assoc false windows in
  let p99 = quantile u.lat 0.99 in
  compose ~workload:"daemon_mixed" ~setups ~rss ~attempted:!attempted ~failed:!failed
    ~notes:
      [
        ("rate_req_per_s", J.Float rate);
        ("latency_p99_us", J.Float p99);
        ("latency_limit_p99_us", J.Float 25_000.0);
        ("latency_limit_met", J.Bool (p99 <= 25_000.0));
        (* Even a median of 21 spread set-ups moves 20-40% from run to
           run with the host's load, wider than any bound, so [compare]
           reports it unresolved: no change is judged by it. *)
        ("setup_s_gated", J.Bool false);
      ]
    windows

(* --- Result files ------------------------------------------------------------------ *)

let workloads =
  [
    ("compile_corpus", compile_corpus);
    ("explore_ether", explore_ether);
    ("moves_synth_100k", moves_synth);
    ("daemon_mixed", daemon_mixed);
  ]

let result_file cfg results =
  J.Obj
    [
      ("schema", J.String "slifbench/1");
      ("seed", J.Int cfg.seed);
      ("seconds", J.Float cfg.seconds);
      ("trace", J.Bool cfg.trace);
      ("workloads", J.Obj results);
    ]

let read_json path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let workloads_of path =
  match J.member "workloads" (read_json path) with
  | Some (J.Obj ws) -> ws
  | _ -> failwith (path ^ ": no \"workloads\" object")

let int_member k j = match J.member k j with Some (J.Int i) -> i | _ -> 0
let string_member k j = match J.member k j with Some (J.String s) -> s | _ -> ""

let metric_value group name w =
  match Option.bind (J.member group w) (J.member name) with
  | Some mt -> ( match J.member "value" mt with Some v -> num v | None -> nan)
  | None -> nan

(* --- Smoke check ---------------------------------------------------------------------- *)

(* Schema, references and zero failures, never timing values; and
   BENCHMARK.json must list exactly these workloads and metrics. *)
let smoke_problems ~trace results =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name results with
      | None -> fail "%s: no result" name
      | Some w ->
          if J.member "correct" w <> Some (J.Bool true) then fail "%s: not correct" name;
          if int_member "failed" w <> 0 then fail "%s: %d failed" name (int_member "failed" w);
          if int_member "attempted" w < 1 then fail "%s: nothing attempted" name;
          List.iter
            (fun (group, specs) ->
              List.iter
                (fun s ->
                  if not (Float.is_finite (metric_value group s.name w)) then
                    fail "%s: %s %s missing or not finite" name group s.name)
                specs)
            (("metrics", e2e_specs) :: (if trace then [ ("per_layer", layer_specs) ] else [])))
    workloads;
  let b = read_json benchmark_json in
  let listed key f =
    match J.member key b with Some (J.List items) -> List.map f items | _ -> []
  in
  let named key = listed key (fun it -> (string_member "name" it, string_member "unit" it)) in
  let mine specs = List.map (fun s -> (s.name, s.unit_)) specs in
  if named "end_to_end" <> mine e2e_specs then fail "%s: end_to_end differs" benchmark_json;
  if named "per_layer" <> mine layer_specs then fail "%s: per_layer differs" benchmark_json;
  if listed "workloads" (string_member "name") <> List.map fst workloads then
    fail "%s: workloads differ" benchmark_json;
  List.rev !problems

(* --- compare -------------------------------------------------------------------------- *)

(* Python's statistics.quantiles(data, n=4) (the default "exclusive"
   method), so spreads here match the ones computed from the summary
   lines with Python. *)
let quartiles values =
  let d = Array.of_list (List.sort Float.compare values) in
  let ld = Array.length d in
  if ld = 1 then (d.(0), d.(0))
  else
    let q i =
      let j = max 1 (min (ld - 1) (i * (ld + 1) / 4)) in
      let delta = (i * (ld + 1)) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Per (workload, end-to-end metric): each side's median and quartiles,
   judged against the metric's bound in BENCHMARK.json.  A metric whose
   quartile spread on either side is wider than its bound is unresolved,
   unless every head run beats every base run.  Returns the exit code:
   1 on any regression or any rise in the error rate. *)
let compare_cmd ~base ~head =
  if base = [] || head = [] then failwith "compare needs --base FILE... and --head FILE...";
  let bounds =
    match J.member "end_to_end" (read_json benchmark_json) with
    | Some (J.List items) ->
        List.map
          (fun it ->
            ( string_member "name" it,
              string_member "better" it = "lower",
              match J.member "bound" it with Some v -> num v | None -> nan ))
          items
    | _ -> failwith (benchmark_json ^ ": no end_to_end list")
  in
  let runs files w =
    List.concat_map
      (fun f ->
        List.filter_map (fun (n, r) -> if n = w then Some r else None) (workloads_of f))
      files
  in
  let bad = ref 0 in
  Printf.printf "%-17s %-17s %11s %23s %11s %23s %8s %5s  %s\n" "workload" "metric" "base"
    "base q1..q3" "head" "head q1..q3" "change" "bound" "verdict";
  List.iter
    (fun (w, _) ->
      let b_runs = runs base w and h_runs = runs head w in
      if b_runs <> [] && h_runs <> [] then begin
        List.iter
          (fun (name, lower, bound) ->
            let bv = List.map (metric_value "metrics" name) b_runs in
            let hv = List.map (metric_value "metrics" name) h_runs in
            let bm = median bv and hm = median hv in
            let bq1, bq3 = quartiles bv and hq1, hq3 = quartiles hv in
            let change = (hm -. bm) /. Float.abs bm in
            let worse = if lower then change else -.change in
            let beats h b = if lower then h < b else h > b in
            let verdict =
              if List.for_all (fun h -> List.for_all (beats h) bv) hv then "improved"
              else if
                ratio (bq3 -. bq1) (Float.abs bm) > bound
                || ratio (hq3 -. hq1) (Float.abs hm) > bound
              then "unresolved"
              else if worse > bound then "REGRESSED"
              else if -.worse > bound then "improved"
              else "ok"
            in
            if verdict = "REGRESSED" then incr bad;
            Printf.printf
              "%-17s %-17s %11.5g %11.5g..%-11.5g %11.5g %11.5g..%-11.5g %+7.1f%% %5.2f  %s \
               (n=%d/%d)\n"
              w name bm bq1 bq3 hm hq1 hq3 (100.0 *. change) bound verdict (List.length bv)
              (List.length hv))
          bounds;
        let error_rate rs =
          let sum k = List.fold_left (fun acc j -> acc + int_member k j) 0 rs in
          ratio (float_of_int (sum "failed")) (float_of_int (sum "attempted"))
        in
        let be = error_rate b_runs and he = error_rate h_runs in
        let rose = he > be in
        if rose then incr bad;
        Printf.printf "%-17s %-17s %11.5g %23s %11.5g %23s %8s %5s  %s\n" w "error_rate" be ""
          he "" "" "" (if rose then "REGRESSED" else "ok")
      end)
    workloads;
  Printf.printf "%d regression(s)\n" !bad;
  if !bad > 0 then 1 else 0

(* --- References generator ---------------------------------------------------------------- *)

(* Pin the references from the current code: per spec the Figure 4 counts,
   the MD5 of the v1 store encoding and the [slif estimate] output. *)
let write_golden () =
  mkdir_p golden_dir;
  let rows =
    Array.map
      (fun (s : Specs.Registry.spec) ->
        let slif = Slif_server.Ops.annotated s.source in
        let stats = Slif.Stats.of_slif slif in
        Out_channel.with_open_bin (estimate_golden s.spec_name) (fun oc ->
            output_string oc (Slif_server.Ops.estimate_output slif));
        Printf.sprintf "%s %d %d %s\n" s.spec_name stats.Slif.Stats.bv
          stats.Slif.Stats.channels (v1_md5 slif))
      specs
  in
  Out_channel.with_open_bin corpus_golden (fun oc -> Array.iter (output_string oc) rows)

(* --- Command line --------------------------------------------------------------------- *)

let usage =
  "usage:\n\
  \  slifbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]\n\
  \  slifbench compare --base FILE... --head FILE...\n\
  \  slifbench golden\n\
   Run from the root of the repository.\n\
   workloads: compile_corpus explore_ether moves_synth_100k daemon_mixed\n"

let die msg =
  prerr_string (msg ^ "\n" ^ usage);
  exit 2

(* One workload in this process: the metric rows, then the summary JSON
   as the last stdout line. *)
let run_one cfg name out =
  let f =
    match List.assoc_opt name workloads with
    | Some f -> f
    | None -> die ("unknown workload " ^ name)
  in
  let r = f cfg in
  print_result r;
  Option.iter (fun path -> J.write_file path (result_file cfg [ (name, result_json r) ])) out;
  print_endline (summary_line ~trace:cfg.trace r)

(* Every workload, each in a fresh child process of this executable, so
   heap, GC state and domains never leak from one into the next. *)
let run_all cfg ~out =
  let results =
    List.filter_map
      (fun (name, _) ->
        let file = Filename.concat work_dir (Printf.sprintf "%s-%d.json" name cfg.seed) in
        let exe = Sys.executable_name in
        let args =
          [ exe; "--workload"; name; "--seed"; string_of_int cfg.seed; "--seconds";
            Printf.sprintf "%g" cfg.seconds; "--trace"; (if cfg.trace then "1" else "0");
            "--out"; file ]
          @ if cfg.smoke then [ "--smoke" ] else []
        in
        flush stdout;
        (* The smoke run reports only problems. *)
        let out =
          if cfg.smoke then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 else Unix.stdout
        in
        let pid = Unix.create_process exe (Array.of_list args) Unix.stdin out Unix.stderr in
        if cfg.smoke then Unix.close out;
        match waitpid_retry pid with
        | _, Unix.WEXITED 0 ->
            Option.map (fun w -> (name, w)) (List.assoc_opt name (workloads_of file))
        | _ ->
            Printf.printf "%s: child process failed\n%!" name;
            None)
      workloads
  in
  let out =
    Option.value out
      ~default:(Filename.concat work_dir (Printf.sprintf "result-%d.json" cfg.seed))
  in
  J.write_file out (result_file cfg results);
  if not cfg.smoke then Printf.printf "wrote %s\n" out;
  let problems =
    if cfg.smoke then smoke_problems ~trace:cfg.trace results
    else
      List.filter_map
        (fun (name, _) ->
          match List.assoc_opt name results with
          | Some w when J.member "correct" w = Some (J.Bool true) -> None
          | _ -> Some (name ^ ": failed"))
        workloads
  in
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) problems;
  if problems <> [] then exit 1

let () =
  let seed = ref 1 and seconds = ref None and trace = ref false and smoke = ref false in
  let workload = ref None and out = ref None and child = ref None and command = ref None in
  let base = ref [] and head = ref [] in
  let rec parse = function
    | [] -> ()
    | (("compare" | "golden") as c) :: rest when !command = None ->
        command := Some c;
        parse rest
    | "--seed" :: v :: rest ->
        seed :=
          (match int_of_string_opt v with Some n -> n | None -> die "--seed: not an integer");
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := Some s
        | _ -> die "--seconds: not a positive number");
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := v = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | "--child" :: v :: rest -> child := Some v; parse rest
    | "--base" :: rest -> files base rest
    | "--head" :: rest -> files head rest
    | a :: _ -> die ("unexpected argument " ^ a)
  and files into = function
    | f :: rest when not (String.starts_with ~prefix:"--" f) ->
        into := !into @ [ f ];
        files into rest
    | rest -> parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cfg =
    {
      seed = !seed;
      seconds = Option.value !seconds ~default:(if !smoke then 1.0 else 20.0);
      trace = !trace;
      smoke = !smoke;
    }
  in
  match (!command, !child, !workload) with
  | Some "compare", _, _ -> exit (compare_cmd ~base:!base ~head:!head)
  | Some _, _, _ -> write_golden ()
  | None, Some child, _ -> (
      mkdir_p work_dir;
      match child with
      | "cold-compile" -> child_cold_compile cfg
      | "cold-explore" -> child_cold_explore cfg
      | "synth-prep" -> child_synth_prep cfg
      | c -> die ("unknown child " ^ c))
  | None, None, Some name ->
      mkdir_p work_dir;
      run_one cfg name !out
  | None, None, None ->
      mkdir_p work_dir;
      run_all cfg ~out:!out
