(* End-user smoke tests: drive the built slif binary. *)

let cli = "../bin/slif_cli.exe"

let available = lazy (Sys.file_exists cli)

let run_cli args =
  let out = Filename.temp_file "slif_cli" ".out" in
  let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" cli args out) in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let check_cli name args expect =
  if not (Lazy.force available) then ()
  else begin
    let code, text = run_cli args in
    Alcotest.(check int) (name ^ " exit code") 0 code;
    Alcotest.(check bool)
      (Printf.sprintf "%s output mentions %S" name expect)
      true (contains expect text)
  end

let test_figure4 () = check_cli "figure4" "figure4" "T-slif"

let test_build_stats () = check_cli "build" "build fuzzy" "fuzzymain"

let test_build_dot () = check_cli "dot" "build fuzzy --dot" "digraph"

let test_build_text () = check_cli "text" "build vol --text" "slif volmeter"

let test_compare () = check_cli "compare" "compare vol" "SLIF-AG"

let test_estimate_bounds () = check_cli "bounds" "estimate vol --bounds" "max(us)"

let test_partition_greedy () = check_cli "partition" "partition vol -a greedy" "cost"

let test_dump_and_reload () =
  if not (Lazy.force available) then ()
  else begin
    let tmp = Filename.temp_file "slif" ".vhd" in
    let code = Sys.command (Printf.sprintf "%s dump-spec vol > %s" cli tmp) in
    Alcotest.(check int) "dump exit" 0 code;
    let code, text = run_cli (Printf.sprintf "build --file %s" tmp) in
    Sys.remove tmp;
    Alcotest.(check int) "reload exit" 0 code;
    Alcotest.(check bool) "reload finds volmain" true (contains "volmain" text)
  end

let test_save_load_decision () =
  if not (Lazy.force available) then ()
  else begin
    let tmp = Filename.temp_file "slif" ".decision" in
    let code, _ = run_cli (Printf.sprintf "partition vol -a greedy --save %s" tmp) in
    Alcotest.(check int) "save exit" 0 code;
    let code, text = run_cli (Printf.sprintf "partition vol --load %s" tmp) in
    Sys.remove tmp;
    Alcotest.(check int) "load exit" 0 code;
    Alcotest.(check bool) "replay acknowledged" true (contains "recorded decision" text)
  end

(* The observability flags: both files must come back as valid JSON, the
   metrics must show the estimator and search counters firing, and the
   trace must carry span events (the acceptance bar for Perfetto). *)
let test_obs_flags () =
  if not (Lazy.force available) then ()
  else begin
    let m = Filename.temp_file "slif" ".metrics.json" in
    let t = Filename.temp_file "slif" ".trace.json" in
    let code, _ = run_cli (Printf.sprintf "figure4 --metrics %s --trace %s" m t) in
    Alcotest.(check int) "figure4 exit" 0 code;
    let read path =
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    let parse what path =
      match Slif_obs.Json.parse (read path) with
      | Ok json -> json
      | Error msg -> Alcotest.failf "%s is invalid JSON: %s" what msg
    in
    let metrics = parse "metrics" m in
    let trace = parse "trace" t in
    Sys.remove m;
    Sys.remove t;
    let counter name =
      match Option.bind (Slif_obs.Json.member "counters" metrics)
              (Slif_obs.Json.member name)
      with
      | Some (Slif_obs.Json.Int v) -> v
      | _ -> 0
    in
    Alcotest.(check bool) "memo hits recorded" true (counter "estimate.memo_hit" > 0);
    Alcotest.(check bool) "memo misses recorded" true (counter "estimate.memo_miss" > 0);
    Alcotest.(check bool) "partitions scored" true
      (counter "search.partitions_scored" > 0);
    match Slif_obs.Json.member "traceEvents" trace with
    | Some (Slif_obs.Json.List events) ->
        Alcotest.(check bool) "trace has span events" true (List.length events > 4)
    | _ -> Alcotest.fail "traceEvents missing from trace export"
  end

(* A --trace file is the flight window: the figure4.spec span keeps its
   custom [spec] arg, the pool's counter samples become "C" tracks, and
   every parent id resolves to a span in the same file (0 = root). *)
let test_trace_args_and_counters () =
  if not (Lazy.force available) then ()
  else begin
    let t = Filename.temp_file "slif" ".trace.json" in
    let code, _ = run_cli (Printf.sprintf "figure4 -j 2 --trace %s" t) in
    Alcotest.(check int) "figure4 exit" 0 code;
    let ic = open_in_bin t in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove t;
    let module J = Slif_obs.Json in
    let events =
      match J.parse text with
      | Ok json -> (
          match J.member "traceEvents" json with
          | Some (J.List l) -> l
          | _ -> Alcotest.fail "traceEvents missing")
      | Error msg -> Alcotest.failf "trace is invalid JSON: %s" msg
    in
    let str k e = match J.member k e with Some (J.String s) -> s | _ -> "" in
    let arg k e = Option.bind (J.member "args" e) (J.member k) in
    let phase ph = List.filter (fun e -> str "ph" e = ph) events in
    let spans = phase "X" in
    Alcotest.(check bool) "figure4.spec carries its spec arg" true
      (List.exists
         (fun e -> str "name" e = "figure4.spec" && arg "spec" e = Some (J.String "ans"))
         spans);
    let tracks = List.sort_uniq compare (List.map (str "name") (phase "C")) in
    Alcotest.(check (list string)) "pool counter tracks"
      [ "pool.queue_depth"; "pool.tasks_completed" ] tracks;
    let ids = List.filter_map (arg "id") spans in
    List.iter
      (fun e ->
        match arg "parent" e with
        | Some (J.Int 0) -> ()
        | Some p when List.mem p ids -> ()
        | _ -> Alcotest.failf "span %s has a dangling parent" (str "name" e))
      spans
  end

let test_explore_jobs_differential () =
  if not (Lazy.force available) then ()
  else begin
    let run jobs =
      let code, text =
        run_cli (Printf.sprintf "partition fuzzy --explore -j %d --no-timings" jobs)
      in
      Alcotest.(check int) (Printf.sprintf "-j %d exit code" jobs) 0 code;
      text
    in
    Alcotest.(check string) "explore -j 4 byte-identical to -j 1" (run 1) (run 4)
  end

let test_explore_rejects_bad_jobs () =
  if not (Lazy.force available) then ()
  else begin
    let code, _ = run_cli "partition fuzzy --explore -j 0" in
    Alcotest.(check bool) "nonzero exit" true (code <> 0)
  end

let test_unknown_spec_fails () =
  if not (Lazy.force available) then ()
  else begin
    let code, _ = run_cli "build nonsense" in
    Alcotest.(check bool) "nonzero exit" true (code <> 0)
  end

(* --- The persistent store and cache ---------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let temp_dir () =
  let path = Filename.temp_file "slif_cli" ".dir" in
  Sys.remove path;
  path

let rec rm_rf path =
  if not (Sys.file_exists path) then ()
  else if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Cold build and warm load must print the same bytes for every
   cache-aware subcommand. *)
let test_cache_warm_cold_identical () =
  if not (Lazy.force available) then ()
  else begin
    let dir = temp_dir () in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        List.iter
          (fun args ->
            let code, plain = run_cli args in
            Alcotest.(check int) (args ^ " plain exit") 0 code;
            let code, cold = run_cli (Printf.sprintf "%s --cache-dir %s" args dir) in
            Alcotest.(check int) (args ^ " cold exit") 0 code;
            let code, warm = run_cli (Printf.sprintf "%s --cache-dir %s" args dir) in
            Alcotest.(check int) (args ^ " warm exit") 0 code;
            Alcotest.(check string) (args ^ " cold = plain") plain cold;
            Alcotest.(check string) (args ^ " warm = cold") cold warm)
          [ "build fuzzy"; "estimate fuzzy --bounds"; "partition fuzzy -a greedy" ])
  end

let check_one_line_failure name args needle =
  if not (Lazy.force available) then ()
  else begin
    let code, text = run_cli args in
    Alcotest.(check bool) (name ^ " nonzero exit") true (code <> 0);
    Alcotest.(check bool)
      (Printf.sprintf "%s diagnostic mentions %S" name needle)
      true (contains needle text);
    Alcotest.(check bool) (name ^ " no raw exception") false (contains "Fatal error" text)
  end

let test_missing_source_file () =
  check_one_line_failure "missing --file" "build --file /no/such/file.vhd" "slif:"

let test_unreadable_cache_dir () =
  if not (Lazy.force available) then ()
  else begin
    (* A path under a regular file can never become a directory. *)
    let file = Filename.temp_file "slif_cli" ".notadir" in
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        check_one_line_failure "unreadable cache dir"
          (Printf.sprintf "build fuzzy --cache-dir %s" (Filename.concat file "sub"))
          "slif:")
  end

let test_malformed_store_file () =
  if not (Lazy.force available) then ()
  else begin
    let junk = Filename.temp_file "slif_cli" ".slifstore" in
    Fun.protect
      ~finally:(fun () -> Sys.remove junk)
      (fun () ->
        let oc = open_out_bin junk in
        output_string oc "this is not a store container";
        close_out oc;
        check_one_line_failure "store info on junk"
          (Printf.sprintf "store info %s" junk)
          "magic";
        check_one_line_failure "partition --load on junk"
          (Printf.sprintf "partition fuzzy --load %s" junk)
          "slif:")
  end

let test_store_write_info () =
  if not (Lazy.force available) then ()
  else begin
    let out = Filename.temp_file "slif_cli" ".slifstore" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        let code, _ = run_cli (Printf.sprintf "store write vol -o %s" out) in
        Alcotest.(check int) "write exit" 0 code;
        let code, text = run_cli (Printf.sprintf "store info %s" out) in
        Alcotest.(check int) "info exit" 0 code;
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("info mentions " ^ needle) true (contains needle text))
          [ "volmeter"; "NODE"; "CHAN"; "format:" ])
  end

(* Legacy text decisions (pre-store format) must still replay. *)
let test_load_legacy_text_decision () =
  if not (Lazy.force available) then ()
  else begin
    let tmp = Filename.temp_file "slif" ".decision" in
    Fun.protect
      ~finally:(fun () -> Sys.remove tmp)
      (fun () ->
        let source = (Option.get (Specs.Registry.find "vol")).Specs.Registry.source in
        let slif = Slif_server.Ops.annotated source in
        let s = Slif_server.Ops.apply_proc_asic slif in
        let graph = Slif.Graph.make s in
        let problem = Specsyn.Search.problem graph in
        let solution = Specsyn.Greedy.run problem in
        let oc = open_out_bin tmp in
        output_string oc
          (Slif.Decision.to_string ~note:"legacy" solution.Specsyn.Search.part);
        close_out oc;
        let code, text = run_cli (Printf.sprintf "partition vol --load %s" tmp) in
        Alcotest.(check int) "legacy load exit" 0 code;
        Alcotest.(check bool) "legacy note surfaced" true (contains "legacy" text))
  end

(* Golden regression: a committed store-format decision file must keep
   replaying to the committed report, byte for byte.  Any encoding or
   estimator change that breaks old files shows up here. *)
let test_golden_decision_replay () =
  if not (Lazy.force available) then ()
  else if not (Sys.file_exists "golden/vol_greedy.decn") then ()
  else begin
    let code, text = run_cli "partition vol --load golden/vol_greedy.decn" in
    Alcotest.(check int) "golden replay exit" 0 code;
    Alcotest.(check string) "golden replay output"
      (read_file "golden/vol_greedy.report.txt")
      text
  end

let test_figure4_jobs () =
  if not (Lazy.force available) then ()
  else begin
    let code, text = run_cli "figure4 -j 2" in
    Alcotest.(check int) "figure4 -j 2 exit" 0 code;
    Alcotest.(check bool) "figure4 -j 2 output" true (contains "T-slif" text);
    let code, _ = run_cli "figure4 -j 0" in
    Alcotest.(check bool) "figure4 -j 0 rejected" true (code <> 0)
  end

let suite =
  [
    Alcotest.test_case "figure4 runs" `Slow test_figure4;
    Alcotest.test_case "build prints stats" `Slow test_build_stats;
    Alcotest.test_case "build --dot" `Slow test_build_dot;
    Alcotest.test_case "build --text" `Slow test_build_text;
    Alcotest.test_case "compare runs" `Slow test_compare;
    Alcotest.test_case "estimate --bounds" `Slow test_estimate_bounds;
    Alcotest.test_case "partition greedy" `Slow test_partition_greedy;
    Alcotest.test_case "dump-spec round-trips" `Slow test_dump_and_reload;
    Alcotest.test_case "decision save/load" `Slow test_save_load_decision;
    Alcotest.test_case "--trace/--metrics export" `Slow test_obs_flags;
    Alcotest.test_case "explore -j differential" `Slow test_explore_jobs_differential;
    Alcotest.test_case "explore -j 0 rejected" `Slow test_explore_rejects_bad_jobs;
    Alcotest.test_case "unknown spec rejected" `Slow test_unknown_spec_fails;
    Alcotest.test_case "--cache-dir warm/cold identical" `Slow test_cache_warm_cold_identical;
    Alcotest.test_case "missing source file diagnostic" `Slow test_missing_source_file;
    Alcotest.test_case "unreadable cache dir diagnostic" `Slow test_unreadable_cache_dir;
    Alcotest.test_case "malformed store file diagnostic" `Slow test_malformed_store_file;
    Alcotest.test_case "store write + info" `Slow test_store_write_info;
    Alcotest.test_case "legacy text decision replays" `Slow test_load_legacy_text_decision;
    Alcotest.test_case "golden decision replay" `Slow test_golden_decision_replay;
    Alcotest.test_case "figure4 -j" `Slow test_figure4_jobs;
    Alcotest.test_case "--trace keeps span args and counter tracks" `Slow
      test_trace_args_and_counters;
  ]
