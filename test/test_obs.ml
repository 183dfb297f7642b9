(* Slif_obs: spans, counters, histograms, registry gating, exporters. *)

module Obs = Slif_obs

(* Every test runs on a fresh registry and leaves it disabled so the
   other suites (which run with the registry off) are unaffected. *)
let with_fresh f () =
  Obs.Registry.reset ();
  Obs.Registry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Registry.disable ();
      Obs.Registry.reset ())
    f

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The ring's completed spans, oldest first.  [with_fresh] empties the
   rings, so these are the test's own spans. *)
let spans () =
  List.filter (fun (r : Obs.Flight.record) -> r.fr_kind = Obs.Flight.Span) (Obs.Flight.snapshot ())

let parse_ok what text =
  match Obs.Json.parse text with
  | Ok json -> json
  | Error msg -> Alcotest.failf "%s: invalid JSON: %s" what msg

(* --- Spans --------------------------------------------------------------- *)

let test_span_nesting () =
  (with_fresh @@ fun () ->
   let result =
     Obs.Span.with_ "outer" (fun () ->
         Obs.Span.with_ "inner1" (fun () -> ());
         Obs.Span.with_ "inner2" (fun () -> ());
         42)
   in
   Alcotest.(check int) "with_ returns the body's value" 42 result;
   let events = spans () in
   Alcotest.(check (list string))
     "spans sorted by start time" [ "outer"; "inner1"; "inner2" ]
     (List.map (fun (r : Obs.Flight.record) -> r.fr_name) events);
   let find name = List.find (fun (r : Obs.Flight.record) -> r.fr_name = name) events in
   let outer = find "outer" and inner1 = find "inner1" and inner2 = find "inner2" in
   Alcotest.(check int) "outer is a root" 0 outer.fr_parent;
   Alcotest.(check int) "inner1 nested" outer.fr_id inner1.fr_parent;
   Alcotest.(check int) "inner2 nested" outer.fr_id inner2.fr_parent;
   Alcotest.(check bool) "children start after the parent" true
     (inner1.fr_ts_ns >= outer.fr_ts_ns && inner2.fr_ts_ns >= inner1.fr_ts_ns);
   Alcotest.(check bool) "parent spans its children" true
     (outer.fr_dur_ns >= inner1.fr_dur_ns + inner2.fr_dur_ns))
    ()

let test_span_exception () =
  (with_fresh @@ fun () ->
   (try Obs.Span.with_ "failing" (fun () -> failwith "boom") with Failure _ -> ());
   Alcotest.(check int) "span recorded despite the raise" 1 (List.length (spans ()));
   Alcotest.(check int) "open span restored" 0 (Obs.Flight.current_span ()))
    ()

let test_span_histogram () =
  (with_fresh @@ fun () ->
   Obs.Span.with_ "phase" (fun () -> ());
   Obs.Span.with_ "phase" (fun () -> ());
   match Obs.Histogram.summary "span.phase" with
   | None -> Alcotest.fail "span should feed its duration histogram"
   | Some s ->
       Alcotest.(check int) "two observations" 2 s.count;
       Alcotest.(check bool) "durations are non-negative" true (s.min >= 0.0))
    ()

(* --- Counters ------------------------------------------------------------ *)

let test_counter_aggregation () =
  (with_fresh @@ fun () ->
   (* Two phases feeding the same counters accumulate, as two estimator
      instances do for estimate.*. *)
   Obs.Span.with_ "phase1" (fun () ->
       Obs.Counter.incr "work.items";
       Obs.Counter.incr ~by:4 "work.items");
   Obs.Span.with_ "phase2" (fun () -> Obs.Counter.add "work.items" 5);
   Obs.Counter.incr "other";
   Alcotest.(check int) "aggregated across phases" 10 (Obs.Counter.get "work.items");
   Alcotest.(check int) "unknown counter reads zero" 0 (Obs.Counter.get "absent");
   Alcotest.(check (list (pair string int)))
     "snapshot sorted by name"
     [ ("other", 1); ("work.items", 10) ]
     (List.filter
        (fun (name, _) -> name = "other" || name = "work.items")
        (Obs.Counter.snapshot ())))
    ()

let test_histogram_stats () =
  (with_fresh @@ fun () ->
   List.iter (Obs.Histogram.observe "lat") [ 2.0; 4.0; 6.0 ];
   match Obs.Histogram.summary "lat" with
   | None -> Alcotest.fail "histogram missing"
   | Some s ->
       Alcotest.(check int) "count" 3 s.count;
       Alcotest.(check (float 1e-9)) "sum" 12.0 s.sum;
       Alcotest.(check (float 1e-9)) "min" 2.0 s.min;
       Alcotest.(check (float 1e-9)) "max" 6.0 s.max;
       Alcotest.(check (float 1e-9)) "mean" 4.0 s.mean)
    ()

(* --- Disabled mode ------------------------------------------------------- *)

(* Registry off: no counter, histogram or span args (the always-on ring
   still takes the span).  Registry and flight both off: no record. *)
let test_disabled_noop () =
  Obs.Registry.reset ();
  Obs.Registry.disable ();
  let result =
    Obs.Span.with_ "ghost" ~args:[ ("k", "v") ] (fun () -> Obs.Counter.incr "ghost.count"; 7)
  in
  Alcotest.(check int) "with_ still runs the body" 7 result;
  Alcotest.(check int) "no counter recorded" 0 (Obs.Counter.get "ghost.count");
  Alcotest.(check bool) "no histogram recorded" true
    (Obs.Histogram.summary "span.ghost" = None);
  Alcotest.(check (list (list (pair string string)))) "span kept, args dropped" [ [] ]
    (List.map (fun (r : Obs.Flight.record) -> r.fr_args) (spans ()));
  Obs.Registry.reset ();
  Obs.Flight.disable ();
  Fun.protect ~finally:Obs.Flight.enable @@ fun () ->
  Alcotest.(check int) "fully off: still runs the body" 7 (Obs.Span.with_ "ghost" (fun () -> 7));
  (match try Obs.Span.with_ "ghost2" (fun () -> raise Exit) with Exit -> () with
  | () -> ());
  Alcotest.(check int) "fully off: no record, exceptions pass through" 0
    (Obs.Flight.records_total ())

let test_instrumented_paths_silent_when_disabled () =
  Obs.Registry.reset ();
  Obs.Registry.disable ();
  let slif = Lazy.force Helpers.tiny_slif in
  ignore (Slif.Stats.of_slif slif);
  Alcotest.(check int) "estimate counters silent" 0
    (Obs.Counter.get "estimate.memo_miss");
  Alcotest.(check int) "build counters silent" 0 (Obs.Counter.get "build.nodes")

(* --- Exporters ----------------------------------------------------------- *)

let test_trace_export_valid_json () =
  (with_fresh @@ fun () ->
   Obs.Span.with_ "outer" ~args:[ ("spec", "tiny \"quoted\"\n") ] (fun () ->
       Obs.Span.with_ "inner" (fun () -> ()));
   let path = Filename.temp_file "slif_obs" ".trace.json" in
   Obs.Trace.write_file path;
   let json = parse_ok "trace" (read_file path) in
   Sys.remove path;
   match Obs.Json.member "traceEvents" json with
   | Some (Obs.Json.List events) ->
       (* The two spans plus the metadata event. *)
       Alcotest.(check int) "event count" 3 (List.length events);
       List.iter
         (fun ev ->
           Alcotest.(check bool) "every event has a name and ph" true
             (Obs.Json.member "name" ev <> None && Obs.Json.member "ph" ev <> None))
         events;
       let outer =
         List.find (fun ev -> Obs.Json.member "name" ev = Some (Obs.Json.String "outer")) events
       in
       Alcotest.(check bool) "span args survive the export" true
         (Option.bind (Obs.Json.member "args" outer) (Obs.Json.member "spec")
         = Some (Obs.Json.String "tiny \"quoted\"\n"))
   | _ -> Alcotest.fail "traceEvents missing or not a list")
    ()

let test_metrics_export_valid_json () =
  (with_fresh @@ fun () ->
   Obs.Counter.incr ~by:3 "estimate.memo_hit";
   Obs.Histogram.observe "lat" 1.5;
   let path = Filename.temp_file "slif_obs" ".metrics.json" in
   Obs.Metrics.write_file path;
   let json = parse_ok "metrics" (read_file path) in
   Sys.remove path;
   (match Obs.Json.member "counters" json with
   | Some counters ->
       Alcotest.(check bool) "counter exported" true
         (Obs.Json.member "estimate.memo_hit" counters = Some (Obs.Json.Int 3))
   | None -> Alcotest.fail "counters object missing");
   match Obs.Json.member "histograms" json with
   | Some hists -> (
       match Obs.Json.member "lat" hists with
       | Some h ->
           Alcotest.(check bool) "histogram has a count field" true
             (Obs.Json.member "count" h = Some (Obs.Json.Int 1))
       | None -> Alcotest.fail "lat histogram missing")
   | None -> Alcotest.fail "histograms object missing")
    ()

let test_metrics_jsonl () =
  (with_fresh @@ fun () ->
   Obs.Counter.incr "a";
   Obs.Histogram.observe "b" 2.0;
   let path = Filename.temp_file "slif_obs" ".metrics.jsonl" in
   Obs.Metrics.write_jsonl path;
   let lines =
     read_file path |> String.split_on_char '\n'
     |> List.filter (fun l -> String.trim l <> "")
   in
   Sys.remove path;
   Alcotest.(check int) "one line per metric" 2 (List.length lines);
   List.iter (fun line -> ignore (parse_ok "jsonl line" line)) lines)
    ()

(* --- JSON round-trip ----------------------------------------------------- *)

let test_json_roundtrip () =
  let value =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "a\"b\\c\nd\te\r\012 \001");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.25);
        ("big", Obs.Json.Float 1.23456789e18);
        ("t", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj []; Obs.Json.List [] ]);
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string value) with
  | Ok round -> Alcotest.(check bool) "round-trips" true (round = value)
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg

let test_json_rejects_garbage () =
  List.iter
    (fun text ->
      match Obs.Json.parse text with
      | Ok _ -> Alcotest.failf "parser accepted %S" text
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_nonfinite_floats_print_null () =
  let text = Obs.Json.to_string (Obs.Json.List [ Obs.Json.Float nan; Obs.Json.Float infinity ]) in
  Alcotest.(check string) "nan/inf become null" "[null,null]" text

(* --- Clock --------------------------------------------------------------- *)

let test_clock_monotonic () =
  let t0 = Obs.Clock.now_ns () in
  let t1 = Obs.Clock.now_ns () in
  Alcotest.(check bool) "clock never goes backwards" true (Int64.compare t1 t0 >= 0);
  let (), s = Obs.Clock.time (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id))) in
  Alcotest.(check bool) "elapsed seconds non-negative" true (s >= 0.0)

let test_clock_time_helpers () =
  let x, s = Obs.Clock.time (fun () -> 3 + 4) in
  Alcotest.(check int) "result threaded through" 7 x;
  Alcotest.(check bool) "duration non-negative" true (s >= 0.0);
  let avg = Obs.Clock.time_n 3 (fun () -> ()) in
  Alcotest.(check bool) "average non-negative" true (avg >= 0.0);
  Alcotest.check_raises "time_n rejects n <= 0" (Invalid_argument "Clock.time_n")
    (fun () -> ignore (Obs.Clock.time_n 0 (fun () -> ())))

(* --- Instrumented pipeline ----------------------------------------------- *)

let test_pipeline_counters_fire () =
  (with_fresh @@ fun () ->
   let sem = Vhdl.Sem.build (Vhdl.Parser.parse Helpers.tiny_source) in
   let slif = Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem) in
   Alcotest.(check bool) "build.nodes counted" true (Obs.Counter.get "build.nodes" > 0);
   Alcotest.(check bool) "parse span recorded" true
     (List.exists (fun (r : Obs.Flight.record) -> r.fr_name = "vhdl.parse") (spans ()));
   let s = Helpers.proc_asic_components slif in
   let graph = Slif.Graph.make s in
   let part = Specsyn.Search.seed_partition s in
   let est = Specsyn.Search.estimator graph part in
   Array.iter
     (fun (n : Slif.Types.node) ->
       if Slif.Types.is_process n then ignore (Slif.Estimate.exectime_us est n.n_id))
     s.Slif.Types.nodes;
   Alcotest.(check bool) "memo misses counted" true
     (Obs.Counter.get "estimate.memo_miss" > 0))
    ()

(* The ring keeps the newest [capacity] spans and counts the rest as
   drops; [set_max_events] is the span-store capacity. *)
let test_event_cap () =
  (with_fresh @@ fun () ->
   Obs.Registry.set_max_events 3;
   Fun.protect
     ~finally:(fun () -> Obs.Flight.set_capacity Obs.Flight.default_capacity)
     (fun () ->
       for _ = 1 to 5 do
         Obs.Span.with_ "spam" (fun () -> ())
       done;
       Alcotest.(check int) "ring capped" 3 (List.length (spans ()));
       Alcotest.(check int) "drops counted" 2 (Obs.Flight.dropped_total ())))
    ()

(* A span the caller timed itself (slifbench's daemon requests) lands
   in the ring with the caller's start, duration and args, under the
   ambient open span. *)
let test_push_event () =
  (with_fresh @@ fun () ->
   let t0 = Int64.add (Obs.Registry.epoch_ns ()) 5_000L in
   Obs.Span.with_ "push.parent" (fun () ->
       Obs.Registry.push_event (Obs.Registry.local ())
         {
           Obs.Registry.ev_name = "push.child";
           ev_ts_ns = Int64.sub t0 (Obs.Registry.epoch_ns ());
           ev_dur_ns = 1_234L;
           ev_depth = 0;
           ev_dom = (Obs.Registry.local ()).dom;
           ev_args = [ ("k", "v") ];
         });
   let find name = List.find (fun (r : Obs.Flight.record) -> r.fr_name = name) (spans ()) in
   match (spans (), find "push.child", find "push.parent") with
   | [ _; _ ], child, parent ->
       Alcotest.(check int) "caller's absolute start" (Int64.to_int t0) child.fr_ts_ns;
       Alcotest.(check int) "caller's duration" 1_234 child.fr_dur_ns;
       Alcotest.(check (list (pair string string))) "args kept" [ ("k", "v") ] child.fr_args;
       Alcotest.(check bool) "fresh id" true (child.fr_id > 0 && child.fr_id <> parent.fr_id);
       Alcotest.(check int) "ambient parent" parent.fr_id child.fr_parent
   | recs, _, _ -> Alcotest.failf "expected 2 spans, got %d" (List.length recs))
    ()

(* --- Quantiles ------------------------------------------------------------ *)

(* Log buckets with base 1.15 put every estimate within ~7% of the true
   value; 10% is a comfortable test margin. *)
let check_close name expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f within 10%% of %.2f" name got expected)
    true
    (Float.abs (got -. expected) <= 0.10 *. expected)

let test_quantile_estimation () =
  (with_fresh @@ fun () ->
   for v = 1 to 1000 do
     Obs.Histogram.observe "lat" (float_of_int v)
   done;
   match Obs.Histogram.quantiles "lat" with
   | None -> Alcotest.fail "quantiles missing"
   | Some q ->
       Alcotest.(check int) "count" 1000 q.q_count;
       check_close "p50" 500.0 q.q_p50;
       check_close "p90" 900.0 q.q_p90;
       check_close "p99" 990.0 q.q_p99;
       Alcotest.(check (float 1e-9)) "max is exact" 1000.0 q.q_max;
       Alcotest.(check bool) "estimates never exceed the true max" true
         (q.q_p50 <= q.q_max && q.q_p90 <= q.q_max && q.q_p99 <= q.q_max))
    ()

let test_quantiles_clamped_to_max () =
  (with_fresh @@ fun () ->
   (* A single observation: every quantile must equal it exactly, not a
      bucket midpoint above it. *)
   Obs.Histogram.observe "one" 123.0;
   match Obs.Histogram.quantiles "one" with
   | None -> Alcotest.fail "quantiles missing"
   | Some q ->
       Alcotest.(check (float 1e-9)) "p50 clamped" 123.0 q.q_p50;
       Alcotest.(check (float 1e-9)) "p99 clamped" 123.0 q.q_p99)
    ()

let test_snapshot_full_pairs () =
  (with_fresh @@ fun () ->
   List.iter (Obs.Histogram.observe "a") [ 1.0; 2.0; 3.0 ];
   Obs.Histogram.observe "b" 10.0;
   let full = Obs.Histogram.snapshot_full () in
   Alcotest.(check (list string)) "sorted names" [ "a"; "b" ]
     (List.map (fun (n, _, _) -> n) full);
   List.iter
     (fun (name, (s : Obs.Histogram.summary), (q : Obs.Histogram.quantiles)) ->
       Alcotest.(check int) (name ^ ": summary and quantiles agree on count") s.count
         q.q_count;
       Alcotest.(check (float 1e-9)) (name ^ ": same max") s.max q.q_max)
     full)
    ()

let test_standalone_histogram () =
  let h = Obs.Histogram.create () in
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (Obs.Histogram.quantile h 0.5));
  for v = 1 to 100 do
    Obs.Histogram.record h (float_of_int v)
  done;
  Alcotest.(check int) "count" 100 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 5050.0 (Obs.Histogram.sum h);
  check_close "standalone p50" 50.0 (Obs.Histogram.quantile h 0.5);
  let q = Obs.Histogram.quantile_summary h in
  Alcotest.(check (float 1e-9)) "exact max" 100.0 q.q_max;
  (* Works with the registry disabled — it is daemon telemetry, not a
     registry probe. *)
  Alcotest.(check bool) "registry off" false (Obs.Registry.on ())

let test_window_exact_and_wraparound () =
  let w = Obs.Histogram.window ~capacity:4 () in
  Alcotest.(check bool) "empty window has no quantiles" true
    (Obs.Histogram.window_quantiles w = None);
  List.iter (Obs.Histogram.window_record w) [ 10.0; 20.0; 30.0; 40.0 ];
  (match Obs.Histogram.window_quantiles w with
  | Some q ->
      Alcotest.(check int) "full window count" 4 q.q_count;
      Alcotest.(check (float 1e-9)) "exact max" 40.0 q.q_max
  | None -> Alcotest.fail "full window has quantiles");
  (* Two more observations overwrite the two oldest. *)
  List.iter (Obs.Histogram.window_record w) [ 50.0; 60.0 ];
  (match Obs.Histogram.window_quantiles w with
  | Some q ->
      Alcotest.(check int) "count stays at capacity" 4 q.q_count;
      Alcotest.(check (float 1e-9)) "old max displaced" 60.0 q.q_max;
      (* Remaining values are 30,40,50,60: the exact p50 must sit inside. *)
      Alcotest.(check bool) "p50 from survivors" true (q.q_p50 >= 30.0 && q.q_p50 <= 60.0)
  | None -> Alcotest.fail "window lost its contents");
  Alcotest.(check int) "size capped" 4 (Obs.Histogram.window_size w);
  match Obs.Histogram.window ~capacity:0 () with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ()

(* --- Event log ------------------------------------------------------------ *)

let read_jsonl path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (parse_ok "event line")

let with_event_log f =
  let path = Filename.temp_file "slif_obs" ".events.jsonl" in
  Obs.Event.open_log path;
  Fun.protect
    ~finally:(fun () ->
      Obs.Event.close_log ();
      Obs.Event.set_level Obs.Event.Info;
      Obs.Event.set_sample 1;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_event_emit_and_levels () =
  with_event_log (fun path ->
      Obs.Event.set_level Obs.Event.Info;
      Obs.Event.emit ~level:Obs.Event.Debug "below.threshold";
      Obs.Event.emit "plain" ~fields:[ ("k", Obs.Json.Int 7) ];
      Obs.Event.emit ~level:Obs.Event.Error "bad" ;
      Obs.Event.close_log ();
      let events = read_jsonl path in
      Alcotest.(check int) "debug filtered out" 2 (List.length events);
      let first = List.hd events in
      Alcotest.(check bool) "has timestamp" true (Obs.Json.member "ts_us" first <> None);
      Alcotest.(check bool) "level recorded" true
        (Obs.Json.member "level" first = Some (Obs.Json.String "info"));
      Alcotest.(check bool) "name recorded" true
        (Obs.Json.member "event" first = Some (Obs.Json.String "plain"));
      Alcotest.(check bool) "user field kept" true
        (Obs.Json.member "k" first = Some (Obs.Json.Int 7));
      Alcotest.(check bool) "no trace outside a request" true
        (Obs.Json.member "trace_id" first = None))

let test_event_sampling () =
  with_event_log (fun path ->
      Obs.Event.set_sample 3;
      for _ = 1 to 9 do
        Obs.Event.emit "tick"
      done;
      (* Warnings bypass sampling. *)
      Obs.Event.emit ~level:Obs.Event.Warn "always";
      Obs.Event.close_log ();
      let events = read_jsonl path in
      Alcotest.(check int) "1-in-3 of 9 plus the warning" 4 (List.length events);
      Alcotest.(check int) "emitted counter" 4 (Obs.Event.emitted ());
      Alcotest.(check int) "sampled-out counter" 6 (Obs.Event.sampled_out ());
      match Obs.Event.set_sample 0 with
      | () -> Alcotest.fail "sample 0 accepted"
      | exception Invalid_argument _ -> ())

let test_event_trace_id () =
  with_event_log (fun path ->
      Obs.Flight.with_trace "t-42" (fun () -> Obs.Event.emit "inside");
      Obs.Event.emit "outside";
      Obs.Event.close_log ();
      match read_jsonl path with
      | [ inside; outside ] ->
          Alcotest.(check bool) "trace id attached" true
            (Obs.Json.member "trace_id" inside = Some (Obs.Json.String "t-42"));
          Alcotest.(check bool) "cleared after with_trace" true
            (Obs.Json.member "trace_id" outside = None)
      | events -> Alcotest.failf "expected 2 events, got %d" (List.length events))

let test_event_disabled_is_noop () =
  (* No sink: emit must be free and counters must not move. *)
  Obs.Event.close_log ();
  let before = Obs.Event.emitted () in
  Obs.Event.emit "nobody.listening";
  Alcotest.(check int) "nothing recorded" before (Obs.Event.emitted ())

(* --- Span trace ids -------------------------------------------------------- *)

let test_span_trace_id_arg () =
  (with_fresh @@ fun () ->
   Obs.Flight.with_trace "req-7" (fun () -> Obs.Span.with_ "work" (fun () -> ()));
   Obs.Span.with_ "untraced" (fun () -> ());
   let find name = List.find (fun (r : Obs.Flight.record) -> r.fr_name = name) (spans ()) in
   Alcotest.(check string) "span carries the ambient trace id" "req-7" (find "work").fr_trace;
   Alcotest.(check string) "no ambient id, none recorded" "" (find "untraced").fr_trace)
    ()

(* --- Prometheus rendering --------------------------------------------------- *)

let test_prometheus_rendering () =
  let module P = Obs.Prometheus in
  let q =
    { Obs.Histogram.q_count = 3; q_p50 = 10.0; q_p90 = 20.0; q_p99 = 30.0; q_max = 31.0 }
  in
  let text =
    P.to_string
      [
        P.Counter
          {
            name = P.sanitize_name "server.request.load";
            help = "Requests.";
            samples = [ ([ ("op", "a\"b\\c\nd") ], 5.0) ];
          };
        P.Gauge { name = "up"; help = "Up."; samples = [ ([], 1.0) ] };
        P.Summary
          { name = "lat_us"; help = "Latency."; series = [ ([ ("op", "x") ], q, 60.0) ] };
      ]
  in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "renders %s" (String.escaped needle)) true (go 0)
  in
  contains "# HELP server_request_load Requests.\n";
  contains "# TYPE server_request_load counter\n";
  (* Label values escape backslash, quote and newline. *)
  contains {|server_request_load{op="a\"b\\c\nd"} 5|};
  contains "# TYPE up gauge\n";
  contains "up 1\n";
  contains "# TYPE lat_us summary\n";
  contains {|lat_us{op="x",quantile="0.5"} 10|};
  contains {|lat_us{op="x",quantile="0.99"} 30|};
  contains {|lat_us_sum{op="x"} 60|};
  contains {|lat_us_count{op="x"} 3|};
  Alcotest.(check string) "leading digit escaped" "_fast" (P.sanitize_name "2fast")

(* Hostile label values — quotes, backslashes, newlines, and their
   combinations — must survive exposition unambiguously, in every label
   position, with label keys sanitized like metric names. *)
let test_prometheus_label_escaping () =
  let module P = Obs.Prometheus in
  let text =
    P.to_string
      [
        P.Counter
          {
            name = "slif_worker_requests";
            help = "Per-worker requests.";
            samples =
              [
                ([ ("worker", "0"); ("note", {|say "hi"|}) ], 1.0);
                ([ ("path", {|C:\spec\new|}) ], 2.0);
                ([ ("msg", "line1\nline2"); ("tail", "\\\"\n") ], 3.0);
                ([ ("bad-key!", "v") ], 4.0);
              ];
          };
      ]
  in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "renders %s" (String.escaped needle)) true (go 0)
  in
  contains {|slif_worker_requests{worker="0",note="say \"hi\""} 1|};
  contains {|slif_worker_requests{path="C:\\spec\\new"} 2|};
  contains {|slif_worker_requests{msg="line1\nline2",tail="\\\"\n"} 3|};
  (* Label keys pass through the metric-name sanitizer. *)
  contains {|slif_worker_requests{bad_key_="v"} 4|};
  (* A raw newline inside a label value would split the sample line;
     every emitted line must look like a header or a complete sample. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" then
           Alcotest.(check bool)
             (Printf.sprintf "line %S is header or sample" line)
             true
             (String.length line >= 1
             && (line.[0] = '#' || String.contains line ' ')))

(* Families with nothing to report render their headers and no samples —
   a scraper sees the metric exists rather than a parse error. *)
let test_prometheus_empty_families () =
  let module P = Obs.Prometheus in
  let text =
    P.to_string
      [
        P.Counter { name = "quiet_total"; help = "Nothing yet."; samples = [] };
        P.Summary { name = "quiet_lat"; help = "No requests."; series = [] };
      ]
  in
  Alcotest.(check string)
    "headers only"
    "# HELP quiet_total Nothing yet.\n# TYPE quiet_total counter\n# HELP quiet_lat No \
     requests.\n# TYPE quiet_lat summary\n"
    text;
  Alcotest.(check string) "no families, empty document" "" (P.to_string [])

(* Reserved characters anywhere in a metric name map to '_'; legal
   names pass through untouched. *)
let test_prometheus_reserved_names () =
  let module P = Obs.Prometheus in
  Alcotest.(check string) "dots" "server_lru_hit" (P.sanitize_name "server.lru.hit");
  Alcotest.(check string) "spaces and percent" "hit_rate_" (P.sanitize_name "hit rate%");
  Alcotest.(check string) "braces and quotes" "a_b_c_d_" (P.sanitize_name "a{b\"c}d=");
  Alcotest.(check string)
    "colons survive" "rule:latency_p99"
    (P.sanitize_name "rule:latency_p99");
  Alcotest.(check string) "digits after the first" "x2_fast" (P.sanitize_name "x2.fast");
  Alcotest.(check string) "empty name" "_" (P.sanitize_name "");
  let text =
    P.to_string
      [ P.Counter { name = "bench.a10 p99%"; help = "h"; samples = [ ([], 1.0) ] } ]
  in
  Alcotest.(check bool) "sample uses the sanitized name" true
    (String.length text > 0
    && String.split_on_char '\n' text
       |> List.exists (fun l -> l = "bench_a10_p99_ 1"))

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span survives exceptions" `Quick test_span_exception;
    Alcotest.test_case "span feeds duration histogram" `Quick test_span_histogram;
    Alcotest.test_case "counter aggregation across phases" `Quick test_counter_aggregation;
    Alcotest.test_case "histogram statistics" `Quick test_histogram_stats;
    Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "instrumented paths silent when disabled" `Quick
      test_instrumented_paths_silent_when_disabled;
    Alcotest.test_case "trace export is valid JSON" `Quick test_trace_export_valid_json;
    Alcotest.test_case "metrics export is valid JSON" `Quick test_metrics_export_valid_json;
    Alcotest.test_case "metrics JSONL export" `Quick test_metrics_jsonl;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "non-finite floats print as null" `Quick
      test_nonfinite_floats_print_null;
    Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
    Alcotest.test_case "clock time helpers" `Quick test_clock_time_helpers;
    Alcotest.test_case "pipeline counters fire when enabled" `Quick
      test_pipeline_counters_fire;
    Alcotest.test_case "span buffer cap" `Quick test_event_cap;
    Alcotest.test_case "push_event lands in the ring" `Quick test_push_event;
    Alcotest.test_case "quantile estimation accuracy" `Quick test_quantile_estimation;
    Alcotest.test_case "quantiles clamp to the true max" `Quick
      test_quantiles_clamped_to_max;
    Alcotest.test_case "snapshot_full pairs summaries and quantiles" `Quick
      test_snapshot_full_pairs;
    Alcotest.test_case "standalone histogram" `Quick test_standalone_histogram;
    Alcotest.test_case "window: exact quantiles and wraparound" `Quick
      test_window_exact_and_wraparound;
    Alcotest.test_case "event log: emit and level filter" `Quick test_event_emit_and_levels;
    Alcotest.test_case "event log: deterministic sampling" `Quick test_event_sampling;
    Alcotest.test_case "event log: trace ids" `Quick test_event_trace_id;
    Alcotest.test_case "event log: no sink, no work" `Quick test_event_disabled_is_noop;
    Alcotest.test_case "spans carry the ambient trace id" `Quick test_span_trace_id_arg;
    Alcotest.test_case "prometheus exposition rendering" `Quick test_prometheus_rendering;
    Alcotest.test_case "prometheus label escaping edge cases" `Quick
      test_prometheus_label_escaping;
    Alcotest.test_case "prometheus empty families" `Quick test_prometheus_empty_families;
    Alcotest.test_case "prometheus reserved-char names" `Quick
      test_prometheus_reserved_names;
  ]
