(* The multi-domain daemon battery: the resident set's capacity and
   exact totals under concurrent domains, the [batch] op's edges,
   response ordering under out-of-order worker completion, slow-reader
   backpressure, drain on shutdown, and — the centerpiece — a
   socket-level differential soak proving the daemon's answers are
   byte-identical whether 1, 2 or 4 worker domains execute them. *)

module Server = Slif_server.Server
module Client = Slif_server.Client
module Protocol = Slif_server.Protocol
module Ops = Slif_server.Ops
module Json = Slif_obs.Json

let with_server = Test_server.with_server
let request_exn = Test_server.request_exn

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let spec_names =
  List.filteri (fun i _ -> i < 3)
    (List.map (fun (s : Specs.Registry.spec) -> s.spec_name) Specs.Registry.all)

(* --- The resident set -------------------------------------------------------- *)

let stats_lru client =
  match Json.member "lru" (request_exn client [ ("op", Json.String "stats") ]) with
  | Some lru -> lru
  | None -> Alcotest.fail "stats has no lru block"

let lru_int lru field =
  match Json.member field lru with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "lru.%s missing" field

(* One bundled spec with a distinct trailing comment each: [n] sources,
   [n] content keys. *)
let variant_sources n =
  let vol = (Specs.Registry.find_exn "vol").source in
  List.init n (fun i -> Printf.sprintf "%s\n-- variant %d\n" vol i)

let estimate_source client source =
  ignore
    (request_exn client [ ("op", Json.String "estimate"); ("source", Json.String source) ])

(* [--lru N] keeps N graphs: eight distinct sources fill an eight-graph
   resident set, and a second pass finds every one of them. *)
let test_lru_keeps_capacity_graphs () =
  with_server
    ~config:(fun c -> { c with Server.workers = 2; lru_capacity = 8 })
    (fun _port client ->
      let sources = variant_sources 8 in
      List.iter (estimate_source client) sources;
      List.iter (estimate_source client) sources;
      let lru = stats_lru client in
      Alcotest.(check (list (pair string int)))
        "lru after two passes"
        [ ("size", 8); ("capacity", 8); ("hits", 8); ("misses", 8) ]
        (List.map (fun f -> (f, lru_int lru f)) [ "size"; "capacity"; "hits"; "misses" ]));
  with_server
    ~config:(fun c -> { c with Server.workers = 2; lru_capacity = 3 })
    (fun _port client ->
      List.iter (estimate_source client) (variant_sources 4);
      let lru = stats_lru client in
      Alcotest.(check (pair int int))
        "size and capacity at --lru 3" (3, 3)
        (lru_int lru "size", lru_int lru "capacity"))

(* Eight worker domains serve eight client domains' lookups by key, all
   through the one resident lock: every lookup is counted exactly once,
   however the domains interleave. *)
let test_lru_concurrent_hammer () =
  let domains = 8 and rounds = 25 in
  with_server
    ~config:(fun c -> { c with Server.workers = domains })
    (fun port client ->
      let load spec =
        match
          Json.member "key"
            (request_exn client [ ("op", Json.String "load"); ("spec", Json.String spec) ])
        with
        | Some (Json.String k) -> k
        | _ -> Alcotest.fail "load response has no key"
      in
      let keys = Array.of_list (List.map load spec_names) in
      let driver d () =
        let lines =
          List.init rounds (fun r ->
              Printf.sprintf {|{"op":"load","key":%S}|} keys.((d + r) mod Array.length keys))
        in
        let c = Client.connect_tcp ~timeout_ms:120_000 port in
        let responses = Client.pipeline_raw c lines in
        Client.close c;
        List.length (List.filter (fun r -> not (contains r {|"ok":true|})) responses)
      in
      let doms = List.init domains (fun d -> Domain.spawn (driver d)) in
      let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 doms in
      Alcotest.(check int) "every lookup found its graph" 0 bad;
      let lru = stats_lru client in
      let n = Array.length keys in
      Alcotest.(check (list (pair string int)))
        "exact totals"
        [ ("hits", domains * rounds); ("misses", n); ("size", n) ]
        (List.map (fun f -> (f, lru_int lru f)) [ "hits"; "misses"; "size" ]))

(* --- Batch edges ------------------------------------------------------------ *)

let estimate_item spec =
  Json.Obj [ ("op", Json.String "estimate"); ("spec", Json.String spec) ]

let batch_line items = Json.to_string (Client.batch_request items)

let results_exn client items =
  match Client.batch client items with
  | Ok results -> results
  | Error msg -> Alcotest.failf "batch failed: %s" msg

let test_batch_empty () =
  with_server (fun _port client ->
      let json = request_exn client
          [ ("op", Json.String "batch"); ("items", Json.List []) ]
      in
      (match Json.member "count" json with
      | Some (Json.Int 0) -> ()
      | _ -> Alcotest.fail "empty batch count not 0");
      match Json.member "results" json with
      | Some (Json.List []) -> ()
      | _ -> Alcotest.fail "empty batch results not []")

let test_batch_order_and_isolation () =
  with_server ~config:(fun c -> { c with Server.workers = 2 }) (fun _port client ->
      let spec = List.hd spec_names in
      let items =
        [
          estimate_item spec;
          Json.Obj [ ("op", Json.String "frobnicate") ];
          Json.Obj [ ("op", Json.String "load"); ("spec", Json.String spec) ];
          Json.Obj [ ("op", Json.String "load"); ("spec", Json.String "no-such-spec") ];
          estimate_item spec;
        ]
      in
      let results = results_exn client items in
      Alcotest.(check int) "five slots answered" 5 (List.length results);
      let ok_of i =
        match Json.member "ok" (List.nth results i) with
        | Some (Json.Bool b) -> b
        | _ -> Alcotest.failf "slot %d has no ok field" i
      in
      Alcotest.(check bool) "slot 0 ok" true (ok_of 0);
      Alcotest.(check bool) "slot 1 malformed isolated" false (ok_of 1);
      Alcotest.(check bool) "slot 2 ok after the bad one" true (ok_of 2);
      Alcotest.(check bool) "slot 3 failing op isolated" false (ok_of 3);
      Alcotest.(check bool) "slot 4 ok" true (ok_of 4);
      (* Order: the estimate slots are identical; the load slot carries
         the design block. *)
      Alcotest.(check bool) "slots 0 and 4 identical" true
        (Json.to_string (List.nth results 0) = Json.to_string (List.nth results 4));
      (match Json.member "error" (List.nth results 1) with
      | Some (Json.String msg) ->
          Alcotest.(check bool) "slot 1 names the op" true
            (contains msg "frobnicate")
      | _ -> Alcotest.fail "slot 1 carries no error");
      (* A batch item failing is not a daemon error line: the wire
         response is still ok:true for the batch itself. *)
      match Json.member "count" (request_exn client
          [ ("op", Json.String "batch"); ("items", Json.List [ estimate_item spec ]) ])
      with
      | Some (Json.Int 1) -> ()
      | _ -> Alcotest.fail "singleton batch count")

let test_batch_rejects_nested_and_control () =
  (* Protocol-level: nested batches and control ops are per-item errors,
     never executed. *)
  match
    Protocol.request_of_line
      (batch_line
         [
           Json.Obj [ ("op", Json.String "batch"); ("items", Json.List []) ];
           Json.Obj [ ("op", Json.String "shutdown") ];
           Json.Obj [ ("op", Json.String "stats") ];
         ])
  with
  | Ok (Protocol.Batch [ Error m1; Error m2; Error m3 ]) ->
      List.iter
        (fun (m, op) ->
          Alcotest.(check bool)
            (op ^ " rejected inside batch")
            true
            (contains m op))
        [ (m1, "batch"); (m2, "shutdown"); (m3, "stats") ]
  | _ -> Alcotest.fail "nested/control items were not isolated errors"

let test_batch_cap () =
  with_server
    ~config:(fun c -> { c with Server.max_batch_items = 3 })
    (fun _port client ->
      let items n = List.init n (fun _ -> estimate_item (List.hd spec_names)) in
      (match Client.batch client (items 3) with
      | Ok results -> Alcotest.(check int) "at the cap" 3 (List.length results)
      | Error msg -> Alcotest.failf "batch at cap failed: %s" msg);
      match Client.batch client (items 4) with
      | Ok _ -> Alcotest.fail "over-cap batch accepted"
      | Error msg ->
          Alcotest.(check bool) "error names the cap" true
            (contains msg "cap"))

let test_batch_differential () =
  with_server ~config:(fun c -> { c with Server.workers = 2 }) (fun _port client ->
      List.iter
        (fun name ->
          let spec = Specs.Registry.find_exn name in
          let expected =
            Ops.estimate_output ~bounds:false (Ops.annotated spec.source)
          in
          List.iter
            (fun r ->
              match Json.member "output" r with
              | Some (Json.String out) ->
                  Alcotest.(check string)
                    (name ^ " batch item matches serial Ops") expected out
              | _ -> Alcotest.fail "batch item carries no output")
            (results_exn client [ estimate_item name; estimate_item name ]))
        spec_names)

(* --- Ordering under out-of-order completion --------------------------------- *)

(* Four workers race a pipelined burst; sequence numbers must keep the
   wire in request order — including a control op landing mid-burst,
   which the acceptor answers at its slot, not when it is parsed. *)
let test_pipeline_order_with_workers () =
  with_server ~config:(fun c -> { c with Server.workers = 4 }) (fun _port client ->
      let spec = List.hd spec_names in
      let est = Json.Obj [ ("op", Json.String "estimate"); ("spec", Json.String spec) ] in
      let lines =
        [
          Json.to_string est;
          Json.to_string est;
          {|{"op":"stats"}|};
          Json.to_string est;
          {|{"op":"health"}|};
          Json.to_string est;
        ]
      in
      let responses = Client.pipeline_raw client lines in
      Alcotest.(check int) "one response per line" (List.length lines)
        (List.length responses);
      let field name r =
        match Json.parse r with
        | Ok json -> Json.member name json
        | Error _ -> None
      in
      let estimates = List.filteri (fun i _ -> List.mem i [ 0; 1; 3; 5 ]) responses in
      (match estimates with
      | first :: rest ->
          List.iter
            (fun r -> Alcotest.(check string) "estimates byte-identical" first r)
            rest
      | [] -> ());
      Alcotest.(check bool) "slot 2 is the stats answer" true
        (field "by_op" (List.nth responses 2) <> None);
      Alcotest.(check bool) "slot 4 is the health answer" true
        (field "inflight" (List.nth responses 4) <> None))

(* --- Differential soak: workers 1 vs 2 vs 4 --------------------------------- *)

(* 64 connections driven from 4 domains pump a deterministic mixed
   workload (load / estimate / partition / batch / malformed) through
   the daemon, pipelined.  The full response transcript — every byte,
   in order — must be identical at every worker count; workers=1 is the
   serial reference, so this is the daemon-level differential against
   serial execution. *)
let soak_lines conn_id rounds =
  let spec i = List.nth spec_names (i mod List.length spec_names) in
  List.concat
    (List.init rounds (fun r ->
         let s = spec (conn_id + r) in
         match (conn_id + r) mod 5 with
         | 0 -> [ Printf.sprintf {|{"op":"load","spec":"%s"}|} s ]
         | 1 -> [ Printf.sprintf {|{"op":"estimate","spec":"%s"}|} s ]
         | 2 -> [ Printf.sprintf {|{"op":"partition","spec":"%s"}|} s ]
         | 3 ->
             [
               batch_line
                 [
                   estimate_item s;
                   Json.Obj [ ("op", Json.String "nope") ];
                   estimate_item (spec (conn_id + r + 1));
                 ];
             ]
         | _ -> [ {|{"op":"frobnicate"}|}; Printf.sprintf {|{"op":"estimate","spec":"%s"}|} s ]))

let soak_transcript ~workers ~conns ~rounds =
  with_server
    ~config:(fun c -> { c with Server.workers; lru_capacity = 8 })
    (fun port _client ->
      let driver_count = 4 in
      let per_driver = conns / driver_count in
      (* Each driver domain pipelines its connections one after another
         while the other three do the same — at least four deep
         pipelines race the worker pool at any moment, and each of the
         [conns] connections carries its whole workload in one write. *)
      let driver d () =
        List.init per_driver (fun i ->
            let conn_id = (d * per_driver) + i in
            let lines = soak_lines conn_id rounds in
            let c = Client.connect_tcp ~timeout_ms:120_000 port in
            let responses = Client.pipeline_raw c lines in
            Client.close c;
            (conn_id, responses))
      in
      let doms = List.init driver_count (fun d -> Domain.spawn (driver d)) in
      let all = List.concat_map Domain.join doms in
      List.sort compare all)

let test_differential_soak () =
  let conns = 64 and rounds = 5 in
  let serial = soak_transcript ~workers:1 ~conns ~rounds in
  Alcotest.(check int) "serial transcript covers every connection" conns
    (List.length serial);
  List.iter
    (fun workers ->
      let parallel = soak_transcript ~workers ~conns ~rounds in
      List.iter2
        (fun (cid, serial_resps) (cid', resps) ->
          Alcotest.(check int) "same connection" cid cid';
          List.iteri
            (fun i (a, b) ->
              if a <> b then
                Alcotest.failf
                  "conn %d response %d differs between workers=1 and workers=%d:\n%s\nvs\n%s"
                  cid i workers a b)
            (List.combine serial_resps resps))
        serial parallel)
    [ 2; 4 ]

(* And the serial reference itself is honest: spot-check it against the
   Ops implementation the CLI prints from. *)
let test_soak_reference_matches_ops () =
  with_server (fun _port client ->
      let name = List.hd spec_names in
      let spec = Specs.Registry.find_exn name in
      let slif = Ops.annotated spec.source in
      let line = Printf.sprintf {|{"op":"estimate","spec":"%s"}|} name in
      let resp = Client.request_raw client line in
      let key = Slif_store.Cache.key ~source:spec.source () in
      let expected =
        Protocol.ok
          [
            ("key", Json.String key);
            ("output", Json.String (Ops.estimate_output ~bounds:false slif));
          ]
      in
      Alcotest.(check string) "wire bytes match Ops + cache key" expected resp)

(* --- Backpressure and limits ------------------------------------------------ *)

let test_backpressure_disconnects_slow_reader () =
  with_server
    ~config:(fun c ->
      { c with Server.workers = 2; max_outq_bytes = 16 * 1024 })
    (fun port client ->
      (* A reader that never reads: pump metrics requests (answers run
         ~10 KB each) without draining a byte.  The kernel's socket
         buffers absorb the first couple of megabytes; past that the
         responses pile up in the daemon's per-connection out-queue
         until the 16 KB cap trips. *)
      let stats_of client =
        match request_exn client [ ("op", Json.String "stats") ] with
        | json -> (
            match Json.member "server" json with
            | Some server -> Json.member "outq_overflows" server
            | None -> None)
      in
      let line = {|{"op":"metrics"}|} in
      let buf = Buffer.create (64 * 1024) in
      for _ = 1 to 64 do
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
      done;
      let burst = Buffer.contents buf in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (try
         for _ = 1 to 20 do
           let pos = ref 0 in
           while !pos < String.length burst do
             pos := !pos + Unix.write_substring fd burst !pos (String.length burst - !pos)
           done;
           Unix.sleepf 0.02
         done
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      (* Hold off reading until the daemon has actually hit the cap —
         draining early could keep the out-queue forever under it. *)
      let deadline = Unix.gettimeofday () +. 60.0 in
      let rec await_overflow () =
        match stats_of client with
        | Some (Json.Int n) when n >= 1 -> ()
        | _ ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "out-queue overflow never tripped"
            else begin
              Unix.sleepf 0.05;
              await_overflow ()
            end
      in
      await_overflow ();
      (* Now read what the daemon kept for us: some responses, then the
         slow-reader protocol error, then EOF. *)
      let rbuf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      (try
         let rec drain () =
           match Unix.read fd chunk 0 (Bytes.length chunk) with
           | 0 -> ()
           | n ->
               Buffer.add_subbytes rbuf chunk 0 n;
               drain ()
         in
         drain ()
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let text = Buffer.contents rbuf in
      Alcotest.(check bool) "the slow-reader protocol error arrived" true
        (contains text "slow reader");
      (* The daemon survived and still answers on a healthy connection,
         with the overflow counted. *)
      match stats_of client with
      | Some (Json.Int n) ->
          Alcotest.(check bool) "overflow counted in stats" true (n >= 1)
      | _ -> Alcotest.fail "stats carries no server.outq_overflows")

let test_connection_limit () =
  with_server
    ~config:(fun c -> { c with Server.max_connections = Some 1 })
    (fun port client ->
      (* [with_server]'s own client occupies the single slot. *)
      let extra = Client.connect_tcp ~timeout_ms:10_000 port in
      let line = Client.request_raw extra {|{"op":"stats"}|} in
      Alcotest.(check bool) "refusal names the limit" true
        (contains line "connection limit");
      (match Client.request_raw extra {|{"op":"stats"}|} with
      | _ -> Alcotest.fail "refused connection stayed open"
      | exception (End_of_file | Client.Timeout | Unix.Unix_error _) -> ());
      Client.close extra;
      (* The resident client still works. *)
      ignore (request_exn client [ ("op", Json.String "health") ]))

(* --- Shutdown and signals --------------------------------------------------- *)

let test_shutdown_drains_inflight () =
  with_server ~config:(fun c -> { c with Server.workers = 4 }) (fun _port client ->
      let spec = List.hd spec_names in
      let est = Printf.sprintf {|{"op":"estimate","spec":"%s"}|} spec in
      (* Three requests and the shutdown ride one write; the daemon must
         answer all four, in order, before closing. *)
      let responses =
        Client.pipeline_raw client [ est; est; est; {|{"op":"shutdown"}|} ]
      in
      (match responses with
      | [ a; b; c; bye ] ->
          Alcotest.(check string) "inflight 2 drained identically" a b;
          Alcotest.(check string) "inflight 3 drained identically" a c;
          Alcotest.(check bool) "estimates answered" true
            (contains a {|"ok":true|});
          Alcotest.(check bool) "bye last" true (contains bye {|"bye":true|})
      | _ -> Alcotest.fail "wrong response count");
      (* And the socket reaches EOF: the daemon is gone, not wedged. *)
      match Client.request_raw client {|{"op":"stats"}|} with
      | _ -> Alcotest.fail "daemon answered after shutdown"
      | exception (End_of_file | Unix.Unix_error _) -> ())

let test_sigusr1_under_workers () =
  with_server ~config:(fun c -> { c with Server.workers = 2 }) (fun _port client ->
      ignore (request_exn client [ ("op", Json.String "health") ]);
      (* The dump handler runs on the acceptor between selects; under a
         worker split it must neither crash nor wedge the daemon. *)
      Unix.kill (Unix.getpid ()) Sys.sigusr1;
      Unix.sleepf 0.3;
      ignore (request_exn client [ ("op", Json.String "health") ]);
      ignore (request_exn client [ ("op", Json.String "stats") ]))

(* --- Telemetry surfaces ------------------------------------------------------ *)

let test_stats_and_metrics_expose_workers_and_lru () =
  with_server
    ~config:(fun c -> { c with Server.workers = 2 })
    (fun _port client ->
      let spec = List.hd spec_names in
      for _ = 1 to 4 do
        ignore
          (request_exn client
             [ ("op", Json.String "estimate"); ("spec", Json.String spec) ])
      done;
      ignore (results_exn client [ estimate_item spec ]);
      let stats = request_exn client [ ("op", Json.String "stats") ] in
      let server =
        match Json.member "server" stats with
        | Some s -> s
        | None -> Alcotest.fail "stats has no server block"
      in
      (match Json.member "workers" server with
      | Some (Json.Int 2) -> ()
      | _ -> Alcotest.fail "server.workers not 2");
      (match Json.member "per_worker" server with
      | Some (Json.Obj series) ->
          Alcotest.(check int) "one series per worker" 2 (List.length series)
      | _ -> Alcotest.fail "server.per_worker missing");
      (match Json.member "lru" stats with
      | Some lru ->
          Alcotest.(check bool)
            "no per-shard breakdown" true
            (Json.member "shards" lru = None);
          Alcotest.(check (pair int int)) "one miss, then hits" (4, 1)
            (lru_int lru "hits", lru_int lru "misses")
      | None -> Alcotest.fail "stats has no lru block");
      let metrics =
        match
          Protocol.output_field (request_exn client [ ("op", Json.String "metrics") ])
        with
        | Some s -> s
        | None -> Alcotest.fail "metrics has no output"
      in
      List.iter
        (fun family ->
          Alcotest.(check bool) (family ^ " exported") true
            (contains metrics family))
        [
          "slif_server_workers";
          "slif_server_queue_depth";
          "slif_server_lru_hits_total";
          "slif_server_lru_misses_total";
          "slif_server_worker_requests_total";
        ];
      (* The one batch carried one estimate item; the four wire
         estimates are not batch items. *)
      Alcotest.(check bool) "batch items by op, exact" true
        (contains metrics ({|slif_server_batch_items_total{op="estimate"} 1|} ^ "\n")))

(* [pool.*] counts sweep pools only: the worker fleet is plain domains,
   so estimates leave every pool figure where it was, and one explore at
   [jobs:2] adds exactly one pool, which is gone when the reply lands. *)
let test_pool_counts_sweeps_only () =
  let fields = [ "pools_created"; "pools_live"; "tasks_submitted"; "tasks_completed" ] in
  let pool_of client =
    match Json.member "pool" (request_exn client [ ("op", Json.String "stats") ]) with
    | Some p ->
        List.map
          (fun f ->
            match Json.member f p with
            | Some (Json.Int n) -> n
            | _ -> Alcotest.failf "pool.%s missing" f)
          fields
    | None -> Alcotest.fail "stats has no pool block"
  in
  let g = Slif_util.Pool.global_stats () in
  let before =
    [ g.g_pools_created; g.g_pools_live; g.g_tasks_submitted; g.g_tasks_completed ]
  in
  with_server
    ~config:(fun c -> { c with Server.workers = 3 })
    (fun _port client ->
      let spec = List.hd spec_names in
      for _ = 1 to 6 do
        ignore
          (request_exn client [ ("op", Json.String "estimate"); ("spec", Json.String spec) ])
      done;
      Alcotest.(check (list int)) "estimates move no pool figure" before (pool_of client);
      ignore
        (request_exn client
           [ ("op", Json.String "explore"); ("spec", Json.String spec); ("jobs", Json.Int 2) ]);
      match pool_of client with
      | [ created; live; submitted; completed ] ->
          Alcotest.(check int) "one explore, one pool" (List.hd before + 1) created;
          Alcotest.(check int) "no pool left live" 0 live;
          Alcotest.(check int) "every submitted task completed" submitted completed
      | _ -> Alcotest.fail "pool block has the wrong shape")

let suite =
  [
    Alcotest.test_case "lru: --lru N keeps N graphs" `Slow test_lru_keeps_capacity_graphs;
    Alcotest.test_case "lru: 8-domain hammer, exact counters" `Slow
      test_lru_concurrent_hammer;
    Alcotest.test_case "stats/metrics expose worker and shared lru families" `Slow
      test_stats_and_metrics_expose_workers_and_lru;
    Alcotest.test_case "pool.* counts sweeps only" `Slow test_pool_counts_sweeps_only;
    Alcotest.test_case "batch: empty" `Slow test_batch_empty;
    Alcotest.test_case "batch: order and per-item isolation" `Slow
      test_batch_order_and_isolation;
    Alcotest.test_case "batch: nested and control items rejected" `Quick
      test_batch_rejects_nested_and_control;
    Alcotest.test_case "batch: item cap" `Slow test_batch_cap;
    Alcotest.test_case "batch: differential vs serial Ops" `Slow
      test_batch_differential;
    Alcotest.test_case "backpressure disconnects slow readers" `Slow
      test_backpressure_disconnects_slow_reader;
    Alcotest.test_case "connection limit refuses extras" `Slow test_connection_limit;
    Alcotest.test_case "shutdown drains in-flight requests" `Slow
      test_shutdown_drains_inflight;
    Alcotest.test_case "SIGUSR1 dump under worker split" `Slow
      test_sigusr1_under_workers;
    Alcotest.test_case "pipeline order under 4 workers" `Slow
      test_pipeline_order_with_workers;
    Alcotest.test_case "differential soak: workers 1/2/4 byte-identical" `Slow
      test_differential_soak;
    Alcotest.test_case "soak reference matches Ops bytes" `Slow
      test_soak_reference_matches_ops;
  ]
