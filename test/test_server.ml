(* The query daemon: protocol, LRU, and an in-process server driven by
   real sockets — with differential checks against the shared [Ops]
   implementation the CLI prints from. *)

module Server = Slif_server.Server
module Client = Slif_server.Client
module Protocol = Slif_server.Protocol
module Lru = Slif_server.Lru
module Ops = Slif_server.Ops
module Json = Slif_obs.Json

(* --- LRU ------------------------------------------------------------------- *)

let test_lru_basics () =
  let l = Lru.create ~capacity:2 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find l "a");
  (* "a" is now most recent, so adding "c" evicts "b". *)
  Lru.add l "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find l "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find l "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find l "c");
  Alcotest.(check int) "size" 2 (Lru.size l);
  Alcotest.(check (list string)) "keys MRU-first" [ "c"; "a" ] (Lru.keys l)

let test_lru_replace () =
  let l = Lru.create ~capacity:2 in
  Lru.add l "a" 1;
  Lru.add l "a" 2;
  Alcotest.(check (option int)) "replaced" (Some 2) (Lru.find l "a");
  Alcotest.(check int) "no duplicate" 1 (Lru.size l)

let test_lru_bad_capacity () =
  match Lru.create ~capacity:0 with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ()

(* --- Protocol -------------------------------------------------------------- *)

let test_protocol_parse () =
  (match Protocol.request_of_line {|{"op":"estimate","spec":"vol","bounds":true}|} with
  | Ok (Protocol.Estimate { target = Protocol.Bundled "vol"; bounds = true; _ }) -> ()
  | _ -> Alcotest.fail "estimate request misparsed");
  (match Protocol.request_of_line {|{"op":"partition","source":"x","deadlines":["m=10"]}|} with
  | Ok (Protocol.Partition { target = Protocol.Source "x"; algo = "greedy"; deadlines = [ "m=10" ]; _ }) -> ()
  | _ -> Alcotest.fail "partition request misparsed");
  (match Protocol.request_of_line {|{"op":"stats"}|} with
  | Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats request misparsed");
  (match Protocol.request_of_line {|{"op":"dump"}|} with
  | Ok Protocol.Dump -> ()
  | _ -> Alcotest.fail "dump request misparsed");
  (match Protocol.request_of_line {|{"op":"traces"}|} with
  | Ok (Protocol.Traces None) -> ()
  | _ -> Alcotest.fail "traces request misparsed");
  match Protocol.request_of_line {|{"op":"traces","id":"c3-r17"}|} with
  | Ok (Protocol.Traces (Some "c3-r17")) -> ()
  | _ -> Alcotest.fail "traces-by-id request misparsed"

let test_protocol_rejects () =
  let reject line =
    match Protocol.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" line
  in
  reject "not json";
  reject {|{"no_op":1}|};
  reject {|{"op":"frobnicate"}|};
  reject {|{"op":"load"}|};
  reject {|{"op":"load","spec":"a","source":"b"}|};
  reject {|{"op":"load","spec":17}|};
  reject {|{"op":"explore","spec":"a","jobs":"four"}|};
  reject {|{"op":"traces","id":17}|};
  (* Control ops stay out of batches — dump and traces included. *)
  List.iter
    (fun op ->
      match
        Protocol.request_of_line
          (Printf.sprintf {|{"op":"batch","items":[{"op":%S}]}|} op)
      with
      | Ok (Protocol.Batch [ Error msg ]) ->
          Alcotest.(check bool)
            (op ^ " rejected inside a batch")
            true
            (String.length msg > 0)
      | _ -> Alcotest.failf "batched %s not isolated as an item error" op)
    [ "dump"; "traces"; "stats"; "shutdown" ]

(* --- In-process daemon ----------------------------------------------------- *)

(* Run the server on a fresh loopback port in its own domain, hand the
   connected client to [f], then shut the daemon down and join it. *)
let with_server ?(config = fun c -> c) f =
  let port = Atomic.make None in
  let on_ready = function
    | Unix.ADDR_INET (_, p) -> Atomic.set port (Some p)
    | _ -> ()
  in
  let cfg = config (Server.default_config (Server.Tcp 0)) in
  let domain = Domain.spawn (fun () -> Server.run ~on_ready cfg) in
  let rec wait_port tries =
    match Atomic.get port with
    | Some p -> p
    | None ->
        if tries = 0 then Alcotest.fail "server never came up";
        Unix.sleepf 0.01;
        wait_port (tries - 1)
  in
  let p = wait_port 500 in
  let client = Client.connect_tcp p in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Client.request_raw client {|{"op":"shutdown"}|}) with _ -> ());
      Client.close client;
      Domain.join domain)
    (fun () -> f p client)

let request_exn client fields =
  match Client.request client (Json.Obj fields) with
  | Ok json -> json
  | Error msg -> Alcotest.failf "request failed: %s" msg

let output_exn client fields =
  match Protocol.output_field (request_exn client fields) with
  | Some s -> s
  | None -> Alcotest.fail "response carries no output"

let test_estimate_differential () =
  with_server (fun _port client ->
      List.iter
        (fun (spec : Specs.Registry.spec) ->
          let server_out =
            output_exn client
              [ ("op", Json.String "estimate"); ("spec", Json.String spec.spec_name);
                ("bounds", Json.Bool true) ]
          in
          Alcotest.(check string)
            (spec.spec_name ^ " estimate matches the CLI implementation")
            (Ops.estimate_output ~bounds:true (Ops.annotated spec.source))
            server_out)
        Specs.Registry.all)

let test_partition_and_explore_differential () =
  with_server (fun _port client ->
      let spec = Specs.Registry.all |> List.hd in
      let slif = Ops.annotated spec.Specs.Registry.source in
      let constraints = Ops.constraints_of_deadlines [] in
      let expected, _ = Ops.partition_output ~algo:Specsyn.Explore.Greedy ~constraints slif in
      let got =
        output_exn client
          [ ("op", Json.String "partition"); ("spec", Json.String spec.Specs.Registry.spec_name) ]
      in
      Alcotest.(check string) "partition matches" expected got;
      (* Explore responses use timings:false, so they are deterministic
         and jobs-independent — equal to the serial Ops run. *)
      let expected = Ops.explore_output ~jobs:1 ~constraints slif in
      let got =
        output_exn client
          [ ("op", Json.String "explore"); ("spec", Json.String spec.Specs.Registry.spec_name);
            ("jobs", Json.Int 2) ]
      in
      Alcotest.(check string) "explore matches (jobs-independent)" expected got)

let test_load_key_and_stats () =
  with_server (fun _port client ->
      let resp =
        request_exn client [ ("op", Json.String "load"); ("spec", Json.String "fuzzy") ]
      in
      let key =
        match Json.member "key" resp with
        | Some (Json.String k) -> k
        | _ -> Alcotest.fail "load response has no key"
      in
      (* The hot path: address the resident graph by content key. *)
      let by_key = output_exn client [ ("op", Json.String "estimate"); ("key", Json.String key) ] in
      let by_name =
        output_exn client [ ("op", Json.String "estimate"); ("spec", Json.String "fuzzy") ]
      in
      Alcotest.(check string) "key and name answers agree" by_name by_key;
      (match
         Client.request client (Json.Obj [ ("op", Json.String "estimate"); ("key", Json.String "feedfeed") ])
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown key accepted");
      let stats = request_exn client [ ("op", Json.String "stats") ] in
      (match Json.member "requests" stats with
      | Some (Json.Int n) -> Alcotest.(check bool) "requests counted" true (n >= 4)
      | _ -> Alcotest.fail "stats has no request count");
      match Option.bind (Json.member "lru" stats) (Json.member "keys") with
      | Some (Json.List keys) ->
          Alcotest.(check bool) "loaded key resident" true
            (List.mem (Json.String key) keys)
      | _ -> Alcotest.fail "stats has no lru keys")

(* Malformed-request soak: garbage of every shape earns an error response,
   and the daemon still answers real queries afterwards. *)
let test_malformed_soak () =
  with_server (fun _port client ->
      let garbage =
        [
          "not json at all";
          "{";
          "[]";
          "42";
          {|"string"|};
          {|{"op":"frobnicate"}|};
          {|{"op":"load"}|};
          {|{"op":"load","spec":"no-such-spec"}|};
          {|{"op":"load","spec":"fuzzy","profile":17}|};
          {|{"op":"partition","spec":"fuzzy","algo":"no-such-algo"}|};
          {|{"op":"partition","spec":"fuzzy","deadlines":["bad-deadline"]}|};
          {|{"op":"estimate","source":"entity broken"}|};
          String.make 4096 'x';
        ]
      in
      let prng = Slif_util.Prng.create 7 in
      for _ = 1 to 100 do
        let line = List.nth garbage (Slif_util.Prng.int prng (List.length garbage)) in
        match Protocol.response_of_line (Client.request_raw client line) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "garbage accepted: %s" line
      done;
      let out = output_exn client [ ("op", Json.String "estimate"); ("spec", Json.String "vol") ] in
      Alcotest.(check bool) "daemon alive after soak" true (String.length out > 0))

(* Several clients from several domains at once: every answer identical
   to the one-shot implementation. *)
let test_concurrent_clients () =
  with_server (fun port _client ->
      let expected = Ops.estimate_output (Ops.annotated (Specs.Registry.all |> List.hd).source) in
      let spec_name = (Specs.Registry.all |> List.hd).Specs.Registry.spec_name in
      let worker () =
        let c = Client.connect_tcp port in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            List.init 5 (fun _ ->
                match
                  Client.request c
                    (Json.Obj [ ("op", Json.String "estimate"); ("spec", Json.String spec_name) ])
                with
                | Ok json -> Protocol.output_field json
                | Error msg -> Alcotest.failf "concurrent request failed: %s" msg))
      in
      let domains = List.init 4 (fun _ -> Domain.spawn worker) in
      List.iter
        (fun d ->
          List.iter
            (fun out -> Alcotest.(check (option string)) "concurrent answer" (Some expected) out)
            (Domain.join d))
        domains)

let test_pipelined_requests () =
  with_server (fun _port client ->
      (* Two requests in one write; responses come back in order. *)
      let first =
        Client.request_raw client
          "{\"op\":\"load\",\"spec\":\"vol\"}\n{\"op\":\"stats\"}"
      in
      (match Protocol.response_of_line first with
      | Ok json ->
          Alcotest.(check bool) "first is the load" true (Json.member "design" json <> None)
      | Error msg -> Alcotest.failf "pipelined load failed: %s" msg);
      match Client.request client (Json.Obj [ ("op", Json.String "stats") ]) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "stats after pipeline failed: %s" msg)

let test_max_requests_stops () =
  let port = Atomic.make None in
  let on_ready = function
    | Unix.ADDR_INET (_, p) -> Atomic.set port (Some p)
    | _ -> ()
  in
  let cfg = { (Server.default_config (Server.Tcp 0)) with Server.max_requests = Some 2 } in
  let domain = Domain.spawn (fun () -> Server.run ~on_ready cfg) in
  let rec wait_port tries =
    match Atomic.get port with
    | Some p -> p
    | None ->
        if tries = 0 then Alcotest.fail "server never came up";
        Unix.sleepf 0.01;
        wait_port (tries - 1)
  in
  let client = Client.connect_tcp (wait_port 500) in
  ignore (Client.request_raw client {|{"op":"stats"}|});
  ignore (Client.request_raw client {|{"op":"stats"}|});
  (* The daemon exits on its own: join must return. *)
  Domain.join domain;
  Client.close client

(* The real thing: spawn the built CLI binary as a daemon on a Unix
   socket and query it. *)
let cli = "../bin/slif_cli.exe"

let test_cli_daemon_smoke () =
  if not (Sys.file_exists cli) then ()
  else begin
    let sock = Filename.temp_file "slif_serve" ".sock" in
    Sys.remove sock;
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process cli
        [| cli; "serve"; "--socket"; sock; "--max-requests"; "2" |]
        Unix.stdin null null
    in
    Unix.close null;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        if Sys.file_exists sock then Sys.remove sock)
      (fun () ->
        let rec wait tries =
          if Sys.file_exists sock then ()
          else if tries = 0 then Alcotest.fail "daemon socket never appeared"
          else begin
            Unix.sleepf 0.05;
            wait (tries - 1)
          end
        in
        wait 200;
        let client = Client.connect_unix sock in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            let out =
              output_exn client
                [ ("op", Json.String "estimate"); ("spec", Json.String "vol") ]
            in
            let spec = Option.get (Specs.Registry.find "vol") in
            Alcotest.(check string) "daemon answer equals one-shot CLI output"
              (Ops.estimate_output (Ops.annotated spec.Specs.Registry.source))
              out;
            ignore (Client.request_raw client {|{"op":"stats"}|})))
  end

(* --- LRU eviction order under touch / re-insert ----------------------------- *)

let test_lru_touch_reinsert_order () =
  let l = Lru.create ~capacity:3 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Lru.add l "c" 3;
  (* Touch a then b: c is now the oldest. *)
  ignore (Lru.find l "a");
  ignore (Lru.find l "b");
  Lru.add l "d" 4;
  Alcotest.(check (option int)) "c evicted" None (Lru.find l "c");
  Alcotest.(check (list string)) "order after touches" [ "d"; "b"; "a" ] (Lru.keys l);
  (* Re-inserting an existing key refreshes it without growing. *)
  Lru.add l "a" 10;
  Alcotest.(check (list string)) "re-insert is a touch" [ "a"; "d"; "b" ] (Lru.keys l);
  Lru.add l "e" 5;
  Alcotest.(check (option int)) "b evicted next" None (Lru.find l "b");
  Alcotest.(check (option int)) "re-inserted value kept" (Some 10) (Lru.find l "a");
  Alcotest.(check int) "size capped" 3 (Lru.size l)

let test_lru_capacity_one () =
  let l = Lru.create ~capacity:1 in
  Lru.add l "a" 1;
  Alcotest.(check (option int)) "sole entry" (Some 1) (Lru.find l "a");
  Lru.add l "b" 2;
  Alcotest.(check (option int)) "previous evicted" None (Lru.find l "a");
  Alcotest.(check (option int)) "newcomer resident" (Some 2) (Lru.find l "b");
  Lru.add l "b" 3;
  Alcotest.(check (option int)) "replace in place" (Some 3) (Lru.find l "b");
  Alcotest.(check int) "never grows" 1 (Lru.size l)

(* --- health / metrics ops ---------------------------------------------------- *)

let test_health_op () =
  with_server (fun _port client ->
      ignore (request_exn client [ ("op", Json.String "load"); ("spec", Json.String "vol") ]);
      let health = request_exn client [ ("op", Json.String "health") ] in
      (match Json.member "uptime_s" health with
      | Some (Json.Float s) -> Alcotest.(check bool) "uptime non-negative" true (s >= 0.0)
      | _ -> Alcotest.fail "health has no uptime_s");
      (match Json.member "inflight" health with
      | Some (Json.Int n) -> Alcotest.(check bool) "our connection counted" true (n >= 1)
      | _ -> Alcotest.fail "health has no inflight");
      (match Json.member "errors" health with
      | Some (Json.Int 0) -> ()
      | _ -> Alcotest.fail "clean daemon reports zero errors");
      (match Json.member "last_error" health with
      | Some Json.Null -> ()
      | _ -> Alcotest.fail "clean daemon has a null last_error");
      (match Option.bind (Json.member "lru" health) (Json.member "size") with
      | Some (Json.Int 1) -> ()
      | _ -> Alcotest.fail "loaded graph not reflected in lru size");
      (match Option.bind (Json.member "gc" health) (Json.member "heap_words") with
      | Some (Json.Int n) -> Alcotest.(check bool) "heap gauge positive" true (n > 0)
      | _ -> Alcotest.fail "health has no gc.heap_words");
      (match Option.bind (Json.member "gc" health) (Json.member "minor_collections") with
      | Some (Json.Int n) -> Alcotest.(check bool) "minor count sane" true (n >= 0)
      | _ -> Alcotest.fail "health has no gc.minor_collections");
      (match Option.bind (Json.member "pool" health) (Json.member "pools_created") with
      | Some (Json.Int n) -> Alcotest.(check bool) "pool totals present" true (n >= 0)
      | _ -> Alcotest.fail "health has no pool.pools_created");
      (* After a failing request, last_error carries the message. *)
      ignore (Client.request_raw client "not json");
      let health = request_exn client [ ("op", Json.String "health") ] in
      (match Json.member "errors" health with
      | Some (Json.Int n) -> Alcotest.(check bool) "error counted" true (n >= 1)
      | _ -> Alcotest.fail "health lost its error count");
      match Json.member "last_error" health with
      | Some (Json.String _) -> ()
      | _ -> Alcotest.fail "last_error not recorded")

(* A permissive line-level check of the exposition format: every line is
   a comment ([# HELP] / [# TYPE]) or [name{labels} value] with a legal
   metric name and a float-parsable value. *)
let check_prometheus_exposition text =
  let legal_name s =
    s <> ""
    && String.for_all
         (fun ch ->
           (ch >= 'a' && ch <= 'z')
           || (ch >= 'A' && ch <= 'Z')
           || (ch >= '0' && ch <= '9')
           || ch = '_' || ch = ':')
         s
    && not (s.[0] >= '0' && s.[0] <= '9')
  in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line >= 1 && line.[0] = '#' then begin
        let is_help = String.length line > 7 && String.sub line 0 7 = "# HELP " in
        let is_type = String.length line > 7 && String.sub line 0 7 = "# TYPE " in
        if not (is_help || is_type) then Alcotest.failf "bad comment line: %s" line;
        if is_type then begin
          match String.split_on_char ' ' line with
          | [ "#"; "TYPE"; name; kind ] ->
              if not (legal_name name) then Alcotest.failf "bad metric name: %s" name;
              if not (List.mem kind [ "counter"; "gauge"; "summary" ]) then
                Alcotest.failf "bad metric type: %s" kind
          | _ -> Alcotest.failf "bad TYPE line: %s" line
        end
      end
      else begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "sample line without a value: %s" line
        | Some sp ->
            let name_part = String.sub line 0 sp in
            let value = String.sub line (sp + 1) (String.length line - sp - 1) in
            (match float_of_string_opt value with
            | Some _ -> ()
            | None -> Alcotest.failf "unparsable sample value %S in: %s" value line);
            let bare =
              match String.index_opt name_part '{' with
              | Some b ->
                  if name_part.[String.length name_part - 1] <> '}' then
                    Alcotest.failf "unterminated label set: %s" line;
                  String.sub name_part 0 b
              | None -> name_part
            in
            if not (legal_name bare) then Alcotest.failf "bad sample name: %s" line
      end)
    (String.split_on_char '\n' text)

let test_metrics_op () =
  with_server (fun _port client ->
      ignore (request_exn client [ ("op", Json.String "load"); ("spec", Json.String "vol") ]);
      ignore
        (request_exn client [ ("op", Json.String "estimate"); ("spec", Json.String "vol") ]);
      ignore (request_exn client [ ("op", Json.String "stats") ]);
      let text = output_exn client [ ("op", Json.String "metrics") ] in
      check_prometheus_exposition text;
      let contains needle =
        let nl = String.length needle and tl = String.length text in
        let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
        Alcotest.(check bool) (Printf.sprintf "exposes %s" needle) true (go 0)
      in
      contains "# TYPE slif_server_uptime_seconds gauge";
      contains "# TYPE slif_server_requests_total counter";
      contains "# TYPE slif_server_request_duration_microseconds summary";
      contains {|slif_server_requests_total{op="estimate"} 1|};
      (* Every op served so far has its three quantiles. *)
      List.iter
        (fun op ->
          List.iter
            (fun q ->
              contains
                (Printf.sprintf
                   {|slif_server_request_duration_microseconds{op="%s",quantile="%s"}|}
                   op q))
            [ "0.5"; "0.9"; "0.99" ])
        [ "load"; "estimate"; "stats" ];
      (* The parallel-stack families: GC pressure per domain, pool
         lifetime totals, and the select loop's idle accounting. *)
      contains "# TYPE slif_gc_minor_collections_total counter";
      contains "# TYPE slif_gc_promoted_words_total counter";
      contains "# TYPE slif_gc_heap_words gauge";
      contains {|slif_gc_minor_words_total{domain="|};
      contains "# TYPE slif_pool_pools_created_total counter";
      contains "# TYPE slif_pool_pools_live gauge";
      contains "# TYPE slif_pool_tasks_submitted_total counter";
      contains "# TYPE slif_pool_tasks_completed_total counter";
      contains "# TYPE slif_server_select_idle_seconds_total counter";
      contains "# TYPE slif_server_loop_iterations_total counter")

(* The stats op carries the same gc/pool blocks the CLI renders in
   [slif stats --watch]. *)
let test_stats_gc_pool () =
  with_server (fun _port client ->
      ignore (request_exn client [ ("op", Json.String "load"); ("spec", Json.String "vol") ]);
      let stats = request_exn client [ ("op", Json.String "stats") ] in
      (match Option.bind (Json.member "gc" stats) (Json.member "minor_words") with
      (* whole-number floats round-trip the wire as ints *)
      | Some (Json.Float w) -> Alcotest.(check bool) "allocation observed" true (w >= 0.0)
      | Some (Json.Int w) -> Alcotest.(check bool) "allocation observed" true (w >= 0)
      | _ -> Alcotest.fail "stats has no gc.minor_words");
      (match Option.bind (Json.member "gc" stats) (Json.member "per_domain") with
      | Some (Json.Obj (_ :: _)) -> ()
      | _ -> Alcotest.fail "stats gc.per_domain empty — daemon domain never sampled");
      match Json.member "pool" stats with
      | Some (Json.Obj fields) ->
          List.iter
            (fun k ->
              if not (List.mem_assoc k fields) then
                Alcotest.failf "stats pool block lacks %s" k)
            [ "pools_created"; "pools_live"; "tasks_submitted"; "tasks_completed" ]
      | _ -> Alcotest.fail "stats has no pool block")

(* --- trace ids: spans and event log agree ------------------------------------ *)

let test_trace_ids_shared () =
  let tmp = Filename.temp_file "slif_events" ".jsonl" in
  Slif_obs.Registry.reset ();
  Slif_obs.Registry.enable ();
  Slif_obs.Event.open_log tmp;
  Fun.protect
    ~finally:(fun () ->
      Slif_obs.Event.close_log ();
      Slif_obs.Registry.disable ();
      Slif_obs.Registry.reset ();
      Sys.remove tmp)
    (fun () ->
      with_server (fun _port client ->
          ignore
            (request_exn client [ ("op", Json.String "load"); ("spec", Json.String "vol") ]);
          ignore (request_exn client [ ("op", Json.String "stats") ]));
      Slif_obs.Event.close_log ();
      let ic = open_in tmp in
      let rec lines acc =
        match input_line ic with
        | line -> lines (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = lines [] in
      close_in ic;
      let log_traces =
        List.filter_map
          (fun line ->
            match Json.parse line with
            | Ok json when Json.member "event" json = Some (Json.String "server.request")
              -> (
                match Json.member "trace_id" json with
                | Some (Json.String id) -> Some id
                | _ -> Alcotest.failf "request event without trace_id: %s" line)
            | Ok _ -> None
            | Error msg -> Alcotest.failf "event log line is not JSON (%s): %s" msg line)
          lines
      in
      Alcotest.(check bool) "request events logged" true (List.length log_traces >= 2);
      let span_traces =
        List.filter_map
          (fun (r : Slif_obs.Flight.record) ->
            if
              r.fr_kind = Slif_obs.Flight.Span && r.fr_trace <> ""
              && String.starts_with ~prefix:"server.request." r.fr_name
            then Some r.fr_trace
            else None)
          (Slif_obs.Flight.snapshot ())
      in
      Alcotest.(check bool) "request spans carry trace ids" true
        (List.length span_traces >= 2);
      List.iter
        (fun id ->
          Alcotest.(check bool)
            (Printf.sprintf "span trace id %s appears in the event log" id)
            true (List.mem id log_traces))
        span_traces)

(* --- stats latency block ------------------------------------------------------ *)

let test_stats_latency () =
  with_server (fun _port client ->
      ignore
        (request_exn client [ ("op", Json.String "estimate"); ("spec", Json.String "vol") ]);
      let stats = request_exn client [ ("op", Json.String "stats") ] in
      match Option.bind (Json.member "latency_us" stats) (Json.member "estimate") with
      | Some q ->
          (match Json.member "count" q with
          | Some (Json.Int 1) -> ()
          | _ -> Alcotest.fail "estimate latency count wrong");
          (match (Json.member "p50" q, Json.member "p99" q, Json.member "max" q) with
          | Some (Json.Float p50), Some (Json.Float p99), Some (Json.Float mx) ->
              Alcotest.(check bool) "quantiles ordered" true (p50 <= p99 && p99 <= mx);
              Alcotest.(check bool) "latency positive" true (p50 > 0.0)
          | _ -> Alcotest.fail "latency quantile fields missing")
      | None -> Alcotest.fail "stats has no latency for estimate")

(* --- store-file targets ------------------------------------------------------- *)

(* A v2 store served by the daemon: the metadata-only load decodes
   nothing, an over-budget compute op earns a typed refusal, and with
   the budget lifted the same request decodes exactly once and matches
   the one-shot implementation. *)
let test_store_target () =
  let p = Slif_synth.Synth.default_params ~seed:11 ~nodes:50_000 Slif_synth.Synth.Mixed in
  let slif = Slif_synth.Synth.generate p in
  let path = Filename.temp_file "slif_served" ".slifstore" in
  Slif_obs.Registry.reset ();
  Slif_obs.Registry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Slif_obs.Registry.disable ();
      Slif_obs.Registry.reset ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Slif_store.Store.save_slif ~path ~version:Slif_store.Store.format_version_v2 slif;
      let decodes () = Slif_obs.Counter.get "store.lazy.full_decode" in
      with_server
        ~config:(fun c -> { c with Server.max_graph_mb = Some 1 })
        (fun _port client ->
          let before = decodes () in
          let resp =
            request_exn client [ ("op", Json.String "load"); ("store", Json.String path) ]
          in
          (match Json.member "nodes" resp with
          | Some (Json.Int n) -> Alcotest.(check int) "META node count" 50_000 n
          | _ -> Alcotest.fail "store load carries no node count");
          (match Json.member "lazy" resp with
          | Some (Json.Bool true) -> ()
          | _ -> Alcotest.fail "store load is not lazy");
          Alcotest.(check int) "metadata-only load decodes nothing" before (decodes ());
          (* The decoded graph is far over 1 MB: refused with a
             machine-readable kind, still without decoding anything. *)
          let raw =
            Client.request_raw client
              (Json.to_string
                 (Json.Obj [ ("op", Json.String "estimate"); ("store", Json.String path) ]))
          in
          (match Json.parse raw with
          | Ok json ->
              (match Json.member "ok" json with
              | Some (Json.Bool false) -> ()
              | _ -> Alcotest.fail "over-budget estimate accepted");
              (match Json.member "kind" json with
              | Some (Json.String "graph_too_large") -> ()
              | _ -> Alcotest.failf "refusal lacks typed kind: %s" raw)
          | Error msg -> Alcotest.failf "unparseable refusal: %s" msg);
          Alcotest.(check int) "refusal decodes nothing" before (decodes ()));
      with_server (fun _port client ->
          let before = decodes () in
          let estimate () =
            output_exn client [ ("op", Json.String "estimate"); ("store", Json.String path) ]
          in
          Alcotest.(check string) "store estimate matches the CLI implementation"
            (Ops.estimate_output ~bounds:false slif) (estimate ());
          Alcotest.(check int) "exactly one decode" (before + 1) (decodes ());
          (* The decoded graph is LRU-resident now; answering again must
             not touch the store. *)
          ignore (estimate ());
          Alcotest.(check int) "second answer from the LRU" (before + 1) (decodes ())))

(* Regenerating a store file on disk must be picked up by a running
   daemon: save_slif renames a fresh inode over the old one, so the
   cached handle (a v2 mapping or a v1 file identity) is revalidated per
   request and the stale decoded LRU entry dropped with it. *)
let test_store_refresh () =
  let first =
    Slif_synth.Synth.generate
      (Slif_synth.Synth.default_params ~seed:3 ~nodes:2_000 Slif_synth.Synth.Mixed)
  in
  let second =
    Slif_synth.Synth.generate
      (Slif_synth.Synth.default_params ~seed:4 ~nodes:2_000 Slif_synth.Synth.Fanout)
  in
  let out_first = Ops.estimate_output ~bounds:false first in
  let out_second = Ops.estimate_output ~bounds:false second in
  Alcotest.(check bool) "the two graphs estimate differently" false
    (String.equal out_first out_second);
  (* v1, the default writer's format, is decoded whole and never mapped;
     v2 is served through a mapped handle.  Both must notice the rename. *)
  List.iter
    (fun version ->
      let path = Filename.temp_file "slif_refresh" ".slifstore" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let save = Slif_store.Store.save_slif ~path ?version in
          save first;
          with_server (fun _port client ->
              let estimate () =
                output_exn client
                  [ ("op", Json.String "estimate"); ("store", Json.String path) ]
              in
              Alcotest.(check string) "serves the first graph" out_first (estimate ());
              save second;
              Alcotest.(check string) "serves the regenerated graph" out_second
                (estimate ()))))
    [ None; Some Slif_store.Store.format_version_v2 ]

(* --- line cap ----------------------------------------------------------------- *)

let test_line_cap () =
  with_server
    ~config:(fun c -> { c with Server.max_line_bytes = 1024 })
    (fun port client ->
      (* A raw socket, so we can pour bytes in without a newline. *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let chunk = Bytes.make 4096 'x' in
          ignore (Unix.write fd chunk 0 (Bytes.length chunk));
          (* The daemon must answer with a protocol error, then close. *)
          let buf = Buffer.create 256 in
          let piece = Bytes.create 4096 in
          let eof = ref false in
          while not !eof do
            match Unix.read fd piece 0 (Bytes.length piece) with
            | 0 -> eof := true
            | n -> Buffer.add_subbytes buf piece 0 n
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                eof := true
          done;
          let reply = String.trim (Buffer.contents buf) in
          match Protocol.response_of_line reply with
          | Ok _ -> Alcotest.fail "oversized line accepted"
          | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "error names the cap: %s" msg)
                true
                (let needle = "byte cap" in
                 let nl = String.length needle and ml = String.length msg in
                 let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
                 go 0));
      (* The daemon keeps serving other connections. *)
      ignore (request_exn client [ ("op", Json.String "stats") ]))

(* SIGUSR1 makes the daemon dump its telemetry to stderr and keep
   serving.  Needs the real process: signals are process-wide. *)
let test_sigusr1_dump () =
  if not (Sys.file_exists cli) then ()
  else begin
    let sock = Filename.temp_file "slif_serve" ".sock" in
    Sys.remove sock;
    let err_path = Filename.temp_file "slif_serve" ".stderr" in
    let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process cli [| cli; "serve"; "--socket"; sock |] Unix.stdin null err_fd
    in
    Unix.close null;
    Unix.close err_fd;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        if Sys.file_exists sock then Sys.remove sock;
        if Sys.file_exists err_path then Sys.remove err_path)
      (fun () ->
        let rec wait tries =
          if Sys.file_exists sock then ()
          else if tries = 0 then Alcotest.fail "daemon socket never appeared"
          else begin
            Unix.sleepf 0.05;
            wait (tries - 1)
          end
        in
        wait 200;
        let client = Client.connect_unix ~timeout_ms:10_000 sock in
        Fun.protect
          ~finally:(fun () ->
            (try ignore (Client.request_raw client {|{"op":"shutdown"}|}) with _ -> ());
            Client.close client)
          (fun () ->
            ignore (request_exn client [ ("op", Json.String "stats") ]);
            Unix.kill pid Sys.sigusr1;
            let contains_dump () =
              let ic = open_in err_path in
              let text = really_input_string ic (in_channel_length ic) in
              close_in ic;
              let needle = "slif serve telemetry" in
              let nl = String.length needle and tl = String.length text in
              let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
              go 0
            in
            let rec wait_dump tries =
              if contains_dump () then ()
              else if tries = 0 then Alcotest.fail "no telemetry dump after SIGUSR1"
              else begin
                Unix.sleepf 0.05;
                wait_dump (tries - 1)
              end
            in
            wait_dump 100;
            (* The dump is the stats reply line between the markers. *)
            let ic = open_in err_path in
            let rec stats_line () =
              match input_line ic with
              | "--- slif serve telemetry ---" -> input_line ic
              | _ -> stats_line ()
            in
            let line = Fun.protect ~finally:(fun () -> close_in ic) stats_line in
            (match Json.parse line with
            | Ok json ->
                Alcotest.(check bool) "dump carries the stats counters" true
                  (Json.member "requests" json <> None && Json.member "by_op" json <> None)
            | Error e -> Alcotest.failf "dump line is not JSON (%s): %s" e line);
            (* Still serving after the dump. *)
            ignore (request_exn client [ ("op", Json.String "health") ])))
  end

(* --- flight recorder over the wire ------------------------------------------- *)

(* Force every request slow ([--slow-ms 0]), run an estimate against a
   store file, and check the daemon retained its complete cross-domain
   span tree: accept (acceptor), queue wait + execution + store decode
   (worker), all sharing the root span id — reconstructed purely from
   the flight window's causality links. *)
let test_flight_retention () =
  Slif_obs.Flight.reset ();
  let p = Slif_synth.Synth.default_params ~seed:3 ~nodes:5_000 Slif_synth.Synth.Mixed in
  let slif = Slif_synth.Synth.generate p in
  let path = Filename.temp_file "slif_flight" ".slifstore" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Slif_store.Store.save_slif ~path ~version:Slif_store.Store.format_version_v2 slif;
      with_server
        ~config:(fun c -> { c with Server.slow_ms = Some 0.0 })
        (fun _port client ->
          ignore
            (output_exn client
               [ ("op", Json.String "estimate"); ("store", Json.String path) ]);
          let listing = request_exn client [ ("op", Json.String "traces") ] in
          let traces =
            match Json.member "traces" listing with
            | Some (Json.List l) -> l
            | _ -> Alcotest.fail "traces response has no list"
          in
          Alcotest.(check bool) "at least one trace retained" true (traces <> []);
          let sfield t name =
            match Json.member name t with Some (Json.String s) -> s | _ -> ""
          in
          let ifield t name =
            match Json.member name t with Some (Json.Int n) -> n | _ -> -1
          in
          let summary =
            match List.find_opt (fun t -> sfield t "op" = "estimate") traces with
            | Some t -> t
            | None -> Alcotest.fail "estimate trace not in the retained list"
          in
          Alcotest.(check string) "retained as slow" "slow" (sfield summary "reason");
          let tid = sfield summary "id" in
          let resp =
            request_exn client
              [ ("op", Json.String "traces"); ("id", Json.String tid) ]
          in
          let trace =
            match Json.member "trace" resp with
            | Some t -> t
            | None -> Alcotest.fail "traces-by-id carries no trace"
          in
          Alcotest.(check string) "tree echoes the id" tid (sfield trace "id");
          let spans =
            match Json.member "spans" trace with
            | Some (Json.List l) -> l
            | _ -> Alcotest.fail "trace has no spans"
          in
          (* The tree also carries instant events (e.g. the
             [server.request] log event) — the named lookups want the
             spans of the same name. *)
          let find name =
            match
              List.find_opt
                (fun s -> sfield s "name" = name && sfield s "kind" = "span")
                spans
            with
            | Some s -> s
            | None ->
                Alcotest.failf "span %s missing from the retained tree (got: %s)" name
                  (String.concat ", " (List.map (fun s -> sfield s "name") spans))
          in
          let root = find "server.request" in
          let accept = find "server.accept" in
          let queue = find "server.queue_wait" in
          let exec = find "server.request.estimate" in
          let decode = find "server.store.decode" in
          let root_id = ifield root "id" in
          Alcotest.(check bool) "root has a real id" true (root_id > 0);
          Alcotest.(check int) "root is the tree root" 0 (ifield root "parent");
          Alcotest.(check int) "accept under the root" root_id (ifield accept "parent");
          Alcotest.(check int) "queue wait under the root" root_id
            (ifield queue "parent");
          Alcotest.(check int) "execution under the root" root_id
            (ifield exec "parent");
          Alcotest.(check int) "store decode under the execution span"
            (ifield exec "id") (ifield decode "parent");
          (* The causality ids connect spans written by different
             domains: accept and root by the acceptor, queue wait and
             execution by the worker. *)
          Alcotest.(check bool) "tree crosses domains" true
            (ifield exec "dom" <> ifield accept "dom");
          (* An unknown id earns a typed error, not a hang or a crash. *)
          (match
             Client.request client
               (Json.Obj
                  [ ("op", Json.String "traces"); ("id", Json.String "c999-r999") ])
           with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "unknown trace id accepted");
          (* The stats block surfaces the recorder's health. *)
          let stats = request_exn client [ ("op", Json.String "stats") ] in
          match Json.member "flight" stats with
          | Some f ->
              Alcotest.(check bool) "flight records counted" true (ifield f "records" > 0);
              Alcotest.(check bool) "retention counted" true (ifield f "retained" >= 1)
          | None -> Alcotest.fail "stats has no flight block"))

(* The dump op: the whole flight window as Chrome trace_event JSON. *)
let test_flight_dump_op () =
  Slif_obs.Flight.reset ();
  with_server (fun _port client ->
      ignore
        (output_exn client [ ("op", Json.String "estimate"); ("spec", Json.String "fuzzy") ]);
      let out = output_exn client [ ("op", Json.String "dump") ] in
      match Json.parse out with
      | Error msg -> Alcotest.failf "dump output does not parse: %s" msg
      | Ok chrome -> (
          match Json.member "traceEvents" chrome with
          | Some (Json.List events) ->
              Alcotest.(check bool) "window has events" true (events <> []);
              let names =
                List.filter_map
                  (fun e ->
                    match Json.member "name" e with
                    | Some (Json.String s) -> Some s
                    | _ -> None)
                  events
              in
              Alcotest.(check bool) "request span exported" true
                (List.mem "server.request.estimate" names)
          | _ -> Alcotest.fail "dump output has no traceEvents"))

(* --- client timeouts ---------------------------------------------------------- *)

(* A listener whose backlog completes the TCP handshake but which never
   reads or replies: connect succeeds, the request stalls. *)
(* The daemon's accept turns Nagle off on TCP connections (a reply
   must not wait for the next request's ACK) and leaves Unix-domain
   connections alone.  The option is read back from the accepted
   socket, not inferred from a timing. *)
let test_accept_nodelay () =
  let accepted domain addr =
    let listener = Unix.socket domain Unix.SOCK_STREAM 0 in
    let client = Unix.socket domain Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ client; listener ])
      (fun () ->
        Unix.bind listener addr;
        Unix.listen listener 1;
        Unix.connect client (Unix.getsockname listener);
        let fd, _ = Server.accept listener in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            match Unix.getsockopt fd Unix.TCP_NODELAY with
            | v -> Some v
            | exception Unix.Unix_error _ -> None))
  in
  Alcotest.(check (option bool)) "TCP: TCP_NODELAY set" (Some true)
    (accepted Unix.PF_INET (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)));
  let path = Filename.temp_file "slif_nodelay" ".sock" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  Alcotest.(check (option bool)) "Unix-domain: no TCP option" None
    (accepted Unix.PF_UNIX (Unix.ADDR_UNIX path))

let test_client_timeout () =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 1;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "not an inet socket"
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close srv with Unix.Unix_error _ -> ())
    (fun () ->
      let c = Client.connect_tcp ~timeout_ms:200 port in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          match Client.request_raw c {|{"op":"stats"}|} with
          | _ -> Alcotest.fail "stalled socket produced an answer"
          | exception Client.Timeout ->
              let dt = Unix.gettimeofday () -. t0 in
              Alcotest.(check bool) "deadline honored" true (dt >= 0.1 && dt < 5.0)))

let test_client_timeout_rejects_bad_value () =
  match Client.connect_tcp ~timeout_ms:0 1 with
  | _ -> Alcotest.fail "timeout_ms 0 accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "lru basics" `Quick test_lru_basics;
    Alcotest.test_case "lru replace" `Quick test_lru_replace;
    Alcotest.test_case "lru bad capacity" `Quick test_lru_bad_capacity;
    Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "estimate differential (all specs)" `Slow test_estimate_differential;
    Alcotest.test_case "partition/explore differential" `Slow test_partition_and_explore_differential;
    Alcotest.test_case "load, key addressing, stats" `Slow test_load_key_and_stats;
    Alcotest.test_case "malformed-request soak" `Slow test_malformed_soak;
    Alcotest.test_case "concurrent clients" `Slow test_concurrent_clients;
    Alcotest.test_case "pipelined requests" `Quick test_pipelined_requests;
    Alcotest.test_case "max-requests stops the daemon" `Quick test_max_requests_stops;
    Alcotest.test_case "CLI daemon smoke" `Slow test_cli_daemon_smoke;
    Alcotest.test_case "lru touch and re-insert order" `Quick test_lru_touch_reinsert_order;
    Alcotest.test_case "lru capacity one" `Quick test_lru_capacity_one;
    Alcotest.test_case "health op" `Slow test_health_op;
    Alcotest.test_case "metrics op (Prometheus exposition)" `Slow test_metrics_op;
    Alcotest.test_case "stats op carries gc and pool blocks" `Slow test_stats_gc_pool;
    Alcotest.test_case "trace ids shared by spans and event log" `Slow
      test_trace_ids_shared;
    Alcotest.test_case "stats reports latency quantiles" `Slow test_stats_latency;
    Alcotest.test_case "store target: lazy load, budget, decode-once" `Slow
      test_store_target;
    Alcotest.test_case "store target: regenerated file served fresh" `Quick
      test_store_refresh;
    Alcotest.test_case "line cap earns a protocol error" `Quick test_line_cap;
    Alcotest.test_case "SIGUSR1 dumps telemetry" `Slow test_sigusr1_dump;
    Alcotest.test_case "tail retention keeps the cross-domain tree" `Slow
      test_flight_retention;
    Alcotest.test_case "dump op exports the flight window" `Slow test_flight_dump_op;
    Alcotest.test_case "accept sets TCP_NODELAY on TCP only" `Quick test_accept_nodelay;
    Alcotest.test_case "client timeout on a stalled socket" `Quick test_client_timeout;
    Alcotest.test_case "client rejects non-positive timeout" `Quick
      test_client_timeout_rejects_bad_value;
  ]
