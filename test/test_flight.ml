(* The flight recorder: always-on per-domain rings, process-unique span
   ids, cross-domain causality and the Chrome export.

   The recorder is process-global state shared with every other suite
   (spans recorded by tests running before us are still in the rings),
   so each test starts from [Flight.reset] and — where it counts
   records — filters by a name prefix of its own. *)

module Obs = Slif_obs
module Flight = Obs.Flight

let with_fresh f =
  Flight.reset ();
  Fun.protect ~finally:Flight.reset f

(* --- Ring basics ------------------------------------------------------------ *)

let test_record_and_snapshot () =
  with_fresh @@ fun () ->
  let id = Flight.next_id () in
  Flight.record_span ~trace:"t-1" ~id ~parent:0 ~name:"flight.test.a" ~t0_ns:100
    ~dur_ns:50 ();
  Flight.record_event "flight.test.ev";
  let recs = Flight.snapshot () in
  let mine =
    List.filter
      (fun (r : Flight.record) ->
        String.length r.fr_name >= 11 && String.sub r.fr_name 0 11 = "flight.test")
      recs
  in
  Alcotest.(check int) "two records" 2 (List.length mine);
  let span = List.find (fun (r : Flight.record) -> r.Flight.fr_kind = Flight.Span) mine in
  let ev = List.find (fun (r : Flight.record) -> r.Flight.fr_kind = Flight.Event) mine in
  Alcotest.(check string) "span name" "flight.test.a" span.Flight.fr_name;
  Alcotest.(check int) "span id" id span.Flight.fr_id;
  Alcotest.(check int) "span t0" 100 span.Flight.fr_ts_ns;
  Alcotest.(check int) "span dur" 50 span.Flight.fr_dur_ns;
  Alcotest.(check string) "span trace" "t-1" span.Flight.fr_trace;
  Alcotest.(check int) "event id is 0" 0 ev.Flight.fr_id;
  Alcotest.(check string) "event has no ambient trace" "" ev.Flight.fr_trace

let test_ring_wrap_drops () =
  with_fresh @@ fun () ->
  let cap = Flight.default_capacity in
  for i = 1 to cap + 100 do
    Flight.record_span ~id:i ~parent:0 ~name:"flight.wrap" ~t0_ns:i ~dur_ns:1 ()
  done;
  let stat =
    List.find
      (fun (s : Flight.ring_stat) -> s.Flight.rs_records > 0)
      (Flight.ring_stats ())
  in
  Alcotest.(check int) "all writes counted" (cap + 100) stat.Flight.rs_records;
  Alcotest.(check int) "overflow dropped" 100 stat.Flight.rs_dropped;
  Alcotest.(check int) "window holds one capacity" cap stat.Flight.rs_occupancy;
  (* The survivors are the newest [cap] records. *)
  let recs = Flight.snapshot () in
  Alcotest.(check int) "snapshot = occupancy" cap (List.length recs);
  let oldest = List.hd recs in
  Alcotest.(check int) "oldest surviving write" 101 oldest.Flight.fr_ts_ns

let test_disable_enable () =
  with_fresh @@ fun () ->
  Flight.disable ();
  Fun.protect ~finally:Flight.enable @@ fun () ->
  Flight.record_span ~id:(Flight.next_id ()) ~parent:0 ~name:"flight.off" ~t0_ns:1
    ~dur_ns:1 ();
  Flight.record_event "flight.off.ev";
  Alcotest.(check int) "nothing recorded while off" 0 (Flight.records_total ());
  Flight.enable ();
  Flight.record_event "flight.on.ev";
  Alcotest.(check int) "recording resumes" 1 (Flight.records_total ())

let test_set_capacity () =
  with_fresh @@ fun () ->
  Flight.set_capacity 8;
  Fun.protect ~finally:(fun () -> Flight.set_capacity Flight.default_capacity)
  @@ fun () ->
  for i = 1 to 20 do
    Flight.record_span ~id:i ~parent:0 ~name:"flight.cap" ~t0_ns:i ~dur_ns:1 ()
  done;
  Alcotest.(check int) "window bounded by the new capacity" 8
    (List.length (Flight.snapshot ()))

(* --- Span ids across domains ------------------------------------------------ *)

let test_next_id_unique_across_domains () =
  let per_domain = 1000 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Array.init per_domain (fun _ -> Flight.next_id ())))
  in
  let ids = List.concat_map (fun d -> Array.to_list (Domain.join d)) doms in
  let distinct = List.sort_uniq compare ids in
  Alcotest.(check int) "no id minted twice" (4 * per_domain) (List.length distinct)

(* --- Span.with_ integration ------------------------------------------------- *)

let test_span_records_always_on () =
  with_fresh @@ fun () ->
  (* The registry is off — spans must still land in the flight ring. *)
  Alcotest.(check bool) "registry off" false (Obs.Registry.on ());
  Obs.Span.with_ "flight.span.outer" (fun () ->
      Obs.Span.with_ "flight.span.inner" (fun () -> ()));
  let recs = Flight.snapshot () in
  let find name = List.find (fun (r : Flight.record) -> r.Flight.fr_name = name) recs in
  let outer = find "flight.span.outer" and inner = find "flight.span.inner" in
  Alcotest.(check bool) "ids minted" true (outer.Flight.fr_id > 0 && inner.Flight.fr_id > 0);
  Alcotest.(check int) "inner parented under outer" outer.Flight.fr_id
    inner.Flight.fr_parent;
  Alcotest.(check int) "outer is a root" 0 outer.Flight.fr_parent

let test_by_trace_and_parent_chain () =
  with_fresh @@ fun () ->
  Flight.with_trace "flight-req" (fun () ->
      Obs.Span.with_ "flight.req.work" (fun () ->
          Obs.Event.emit "flight.req.mark";
          Obs.Span.with_ "flight.req.step" (fun () -> ())));
  Obs.Span.with_ "flight.other" (fun () -> ());
  let recs = Flight.by_trace "flight-req" in
  Alcotest.(check int) "only the traced records" 3 (List.length recs);
  let find name = List.find (fun (r : Flight.record) -> r.Flight.fr_name = name) recs in
  let work = find "flight.req.work" in
  let step = find "flight.req.step" in
  let mark = find "flight.req.mark" in
  Alcotest.(check int) "step under work" work.Flight.fr_id step.Flight.fr_parent;
  Alcotest.(check int) "event under work" work.Flight.fr_id mark.Flight.fr_parent;
  Alcotest.(check string) "event carries the trace" "flight-req" mark.Flight.fr_trace

(* --- Cross-domain causality through the pool -------------------------------- *)

let test_pool_carries_causality () =
  with_fresh @@ fun () ->
  Slif_util.Pool.with_pool ~jobs:4 ~oversubscribe:true @@ fun pool ->
  (* Each task waits until a second task has started before finishing.
     The submitting domain runs one task at a time, so two concurrent
     tasks prove a second domain executed one — the cross-domain hop is
     guaranteed, not a scheduling accident. *)
  let started = Atomic.make 0 in
  Flight.with_trace "flight-pool" (fun () ->
      Obs.Span.with_ "flight.pool.submit" (fun () ->
          ignore
            (Slif_util.Pool.map pool
               (fun i ->
                 Obs.Span.with_ "flight.pool.task" (fun () ->
                     Atomic.incr started;
                     let deadline =
                       Int64.add (Obs.Clock.now_ns ()) 2_000_000_000L
                     in
                     while
                       Atomic.get started < 2 && Obs.Clock.now_ns () < deadline
                     do
                       Domain.cpu_relax ()
                     done;
                     i * 2))
               [ 1; 2; 3; 4; 5; 6; 7; 8 ])));
  let recs = Flight.by_trace "flight-pool" in
  let submit =
    List.find (fun (r : Flight.record) -> r.Flight.fr_name = "flight.pool.submit") recs
  in
  let tasks =
    List.filter (fun (r : Flight.record) -> r.Flight.fr_name = "flight.pool.task") recs
  in
  let waits =
    List.filter (fun (r : Flight.record) -> r.Flight.fr_name = "pool.queue_wait") recs
  in
  Alcotest.(check int) "every task recorded" 8 (List.length tasks);
  Alcotest.(check int) "every hop recorded a queue wait" 8 (List.length waits);
  List.iter
    (fun (r : Flight.record) ->
      Alcotest.(check int) "task parented under the submit span" submit.Flight.fr_id
        r.Flight.fr_parent;
      Alcotest.(check string) "task carries the submitter's trace" "flight-pool"
        r.Flight.fr_trace)
    tasks;
  List.iter
    (fun (r : Flight.record) ->
      Alcotest.(check int) "queue wait parented under the submit span"
        submit.Flight.fr_id r.Flight.fr_parent)
    waits;
  (* The whole point: the tree crosses domains. *)
  let domains =
    List.sort_uniq compare (List.map (fun (r : Flight.record) -> r.Flight.fr_dom) recs)
  in
  Alcotest.(check bool) "spans span more than one domain" true (List.length domains > 1)

(* --- Chrome export ----------------------------------------------------------- *)

let test_chrome_export () =
  with_fresh @@ fun () ->
  Flight.with_trace "flight-chrome" (fun () ->
      Obs.Span.with_ "flight.chrome.span" (fun () -> Obs.Event.emit "flight.chrome.ev"));
  let json = Flight.to_chrome () in
  (* Round-trips through the parser. *)
  let reparsed =
    match Obs.Json.parse (Obs.Json.to_string json) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "chrome export does not parse: %s" msg
  in
  let events =
    match Obs.Json.member "traceEvents" reparsed with
    | Some (Obs.Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let phase_of e =
    match Obs.Json.member "ph" e with Some (Obs.Json.String s) -> s | _ -> "?"
  in
  let name_of e =
    match Obs.Json.member "name" e with Some (Obs.Json.String s) -> s | _ -> ""
  in
  let span = List.find (fun e -> name_of e = "flight.chrome.span") events in
  let ev = List.find (fun e -> name_of e = "flight.chrome.ev") events in
  Alcotest.(check string) "span is a complete event" "X" (phase_of span);
  Alcotest.(check string) "event is an instant" "i" (phase_of ev);
  (match Obs.Json.member "ts" (List.hd events) with
  | Some (Obs.Json.Float ts) ->
      Alcotest.(check bool) "timestamps rebased to the window" true (ts >= 0.0)
  | Some (Obs.Json.Int ts) -> Alcotest.(check bool) "timestamps rebased" true (ts >= 0)
  | _ -> Alcotest.fail "first trace event has no ts")

(* Counter samples ride in the dur slot under the ambient parent and
   export as "C" tracks; span args export next to id/parent. *)
let test_counters_and_args () =
  with_fresh @@ fun () ->
  let id = Flight.next_id () in
  let t0_ns = Int64.to_int (Obs.Clock.now_ns ()) in
  Flight.with_causality ~parent:id (fun () -> Flight.record_counter "flight.args.depth" 7);
  Flight.record_span ~args:[ ("spec", "ether") ] ~id ~parent:0 ~name:"flight.args.span"
    ~t0_ns ~dur_ns:1 ();
  let recs = Flight.snapshot () in
  let find name = List.find (fun (r : Flight.record) -> r.Flight.fr_name = name) recs in
  let span = find "flight.args.span" and sample = find "flight.args.depth" in
  Alcotest.(check bool) "counter kind" true (sample.Flight.fr_kind = Flight.Counter);
  Alcotest.(check int) "value in the dur slot" 7 sample.Flight.fr_dur_ns;
  Alcotest.(check int) "sample under the open span" span.Flight.fr_id sample.Flight.fr_parent;
  Alcotest.(check (list (pair string string))) "span args kept" [ ("spec", "ether") ]
    span.Flight.fr_args;
  let events =
    match Obs.Json.member "traceEvents" (Flight.to_chrome ()) with
    | Some (Obs.Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let named name =
    List.find (fun e -> Obs.Json.member "name" e = Some (Obs.Json.String name)) events
  in
  let arg k e = Option.bind (Obs.Json.member "args" e) (Obs.Json.member k) in
  Alcotest.(check bool) "counter track" true
    (Obs.Json.member "ph" (named "flight.args.depth") = Some (Obs.Json.String "C")
    && arg "value" (named "flight.args.depth") = Some (Obs.Json.Int 7));
  Alcotest.(check bool) "span arg exported" true
    (arg "spec" (named "flight.args.span") = Some (Obs.Json.String "ether"))

let suite =
  [
    Alcotest.test_case "record and snapshot" `Quick test_record_and_snapshot;
    Alcotest.test_case "ring wrap counts drops" `Quick test_ring_wrap_drops;
    Alcotest.test_case "disable stops the pen" `Quick test_disable_enable;
    Alcotest.test_case "set_capacity resizes the window" `Quick test_set_capacity;
    Alcotest.test_case "ids unique across domains" `Quick test_next_id_unique_across_domains;
    Alcotest.test_case "spans record with the registry off" `Quick
      test_span_records_always_on;
    Alcotest.test_case "by_trace and the parent chain" `Quick test_by_trace_and_parent_chain;
    Alcotest.test_case "pool hops keep causality" `Quick test_pool_carries_causality;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
    Alcotest.test_case "counter samples and span args" `Quick test_counters_and_args;
  ]
