(* The daemon's telemetry snapshot: the pure renderers agree with each
   other on a hand-made snapshot, a live daemon serves exactly the key
   set pinned in test/golden, and a connection flood is refused with a
   typed error instead of killing the daemon. *)

module Server = Slif_server.Server
module Client = Slif_server.Client
module Telemetry = Slif_server.Telemetry
module Lru = Slif_server.Lru
module Json = Slif_obs.Json
module H = Slif_obs.Histogram

let cli = "../bin/slif_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let rec at json = function
  | [] -> json
  | k :: rest -> (
      match Json.member k json with
      | Some v -> at v rest
      | None -> Alcotest.failf "missing key %s" k)

(* --- pure renderers -------------------------------------------------------- *)

let q count p50 =
  { H.q_count = count; q_p50 = p50; q_p90 = p50 *. 2.; q_p99 = p50 *. 3.; q_max = p50 *. 4. }

let gc_counts minor =
  {
    Slif_obs.Gcprof.minor_collections = minor;
    major_collections = 2;
    compactions = 0;
    forced_major_collections = 0;
    minor_words = 1e6;
    promoted_words = 12345.;
    major_words = 0.;
  }

let sample : Telemetry.t =
  {
    uptime_s = 42.5;
    requests = 17;
    errors = 3;
    last_error = Some "request line over the byte cap";
    inflight = 4;
    workers = 2;
    queue_depth = 1;
    jobs_inflight = 2;
    per_worker = [| 9; 11 |];
    outq_overflows = 1;
    dropped_responses = 0;
    rejected_connections = 5;
    queue_wait = q 20 7.;
    queue_wait_sum_us = 210.;
    select_idle_s = 1.25;
    loop_iterations = 99;
    accept_errors = 7;
    ops =
      [
        {
          op = "estimate";
          lifetime = q 12 80.;
          sum_us = 1100.;
          recent = Some (q 12 75.);
          batch_items = 6;
        };
        {
          op = "load";
          lifetime = q 3 900.;
          sum_us = 2900.;
          recent = Some (q 3 850.);
          batch_items = 0;
        };
        { op = "malformed"; lifetime = q 2 5.; sum_us = 10.; recent = None; batch_items = 0 };
      ];
    lru = { Lru.size = 2; capacity = 4; hits = 10; misses = 3; keys = [ "k1"; "k2" ] };
    gc = gc_counts 30;
    gc_per_domain = [ (0, gc_counts 20); (1, gc_counts 10) ];
    heap_words = 4096;
    pool =
      { g_pools_created = 3; g_pools_live = 1; g_tasks_submitted = 40; g_tasks_completed = 39 };
    rings =
      [
        { rs_dom = 0; rs_capacity = 4096; rs_records = 5000; rs_dropped = 904; rs_occupancy = 4096 };
        { rs_dom = 1; rs_capacity = 4096; rs_records = 10; rs_dropped = 0; rs_occupancy = 10 };
      ];
    flight_records = 5010;
    flight_dropped = 904;
    retained = 2;
    retained_live = 2;
    dump_bytes = 0;
    counters = [];
    histograms = [];
  }

(* [name{op="X"} value] samples of one family, keyed by op. *)
let by_op_samples text family =
  let prefix = family ^ {|{op="|} in
  List.filter_map
    (fun line ->
      let pl = String.length prefix in
      if String.length line > pl && String.sub line 0 pl = prefix then
        let close = String.index_from line pl '"' in
        let sp = String.rindex line ' ' in
        Some
          ( String.sub line pl (close - pl),
            int_of_float (float_of_string (String.sub line (sp + 1) (String.length line - sp - 1)))
          )
      else None)
    (String.split_on_char '\n' text)

let test_renderers_agree () =
  let stats = Json.Obj (Telemetry.stats sample) in
  let health = Json.Obj (Telemetry.health sample) in
  (* Every health figure is the stats figure of the same name. *)
  List.iter
    (fun (hpath, spath) ->
      Alcotest.(check string)
        (String.concat "." hpath)
        (Json.to_string (at stats spath))
        (Json.to_string (at health hpath)))
    ([
       ([ "uptime_s" ], [ "uptime_s" ]);
       ([ "inflight" ], [ "inflight" ]);
       ([ "requests" ], [ "requests" ]);
       ([ "errors" ], [ "errors" ]);
       ([ "last_error" ], [ "last_error" ]);
       ([ "workers" ], [ "server"; "workers" ]);
       ([ "queue_depth" ], [ "server"; "queue_depth" ]);
       ([ "lru"; "size" ], [ "lru"; "size" ]);
       ([ "lru"; "capacity" ], [ "lru"; "capacity" ]);
       ([ "gc"; "heap_words" ], [ "gc"; "heap_words" ]);
     ]
    @ List.map
        (fun k -> ([ "gc"; k ], [ "gc"; k ]))
        [ "minor_collections"; "major_collections"; "promoted_words" ]
    @ List.map
        (fun k -> ([ "pool"; k ], [ "pool"; k ]))
        [ "pools_created"; "pools_live"; "tasks_submitted"; "tasks_completed" ]);
  Alcotest.(check string) "lru hits" "10" (Json.to_string (at stats [ "lru"; "hits" ]));
  Alcotest.(check string) "lru misses" "3" (Json.to_string (at stats [ "lru"; "misses" ]));
  Alcotest.(check string) "flight records" "5010"
    (Json.to_string (at stats [ "flight"; "records" ]));
  (* The Prometheus per-op counts are the stats by_op counts. *)
  let by_op =
    match at stats [ "by_op" ] with
    | Json.Obj fields ->
        List.map (fun (op, n) -> (op, match n with Json.Int n -> n | _ -> -1)) fields
    | _ -> Alcotest.fail "by_op is not an object"
  in
  Alcotest.(check (list (pair string int)))
    "by_op" [ ("estimate", 12); ("load", 3); ("malformed", 2) ] by_op;
  let text = Telemetry.prometheus sample in
  Alcotest.(check (list (pair string int)))
    "requests_total{op} = by_op" by_op
    (by_op_samples text "slif_server_requests_total");
  Alcotest.(check (list (pair string int)))
    "request_duration_microseconds_count{op} = by_op" by_op
    (by_op_samples text "slif_server_request_duration_microseconds_count");
  Alcotest.(check bool) "lru hit counter from stats" true
    (contains text "slif_server_lru_hits_total 10\n");
  Alcotest.(check bool) "lru miss counter from stats" true
    (contains text "slif_server_lru_misses_total 3\n");
  Alcotest.(check bool) "worker series from per_worker" true
    (contains text {|slif_server_worker_requests_total{worker="1"} 11|});
  Alcotest.(check (list (pair string int)))
    "batch_items_total{op}: ops with batch items only" [ ("estimate", 6) ]
    (by_op_samples text "slif_server_batch_items_total");
  Alcotest.(check string) "accept errors in stats" "7"
    (Json.to_string (at stats [ "server"; "accept_errors" ]));
  Alcotest.(check bool) "accept error counter from stats" true
    (contains text "slif_server_accept_errors_total 7\n");
  (* The dump is the stats reply between the markers. *)
  Alcotest.(check string) "dump"
    ("--- slif serve telemetry ---\n"
    ^ Slif_server.Protocol.ok (Telemetry.stats sample)
    ^ "\n--- end telemetry ---\n")
    (Telemetry.dump sample)

(* --- live surfaces vs the golden key set ---------------------------------------- *)

let test_surfaces_match_golden () =
  if Sys.file_exists cli then begin
    let golden = Daemon_script.parse (read_file "golden/telemetry_surfaces.txt") in
    let live = Daemon_script.observe ~cli in
    (* The golden predates [stats] carrying [inflight] and [last_error]
       (it shares them with [health] now); nothing else may differ. *)
    Alcotest.(check (list string))
      "stats key paths"
      (List.sort_uniq compare ("inflight" :: "last_error" :: golden.stats))
      live.stats;
    Alcotest.(check (list string)) "health key paths" golden.health live.health;
    Alcotest.(check (list string)) "metrics series" golden.metrics live.metrics;
    Alcotest.(check (list string)) "script counters" golden.values live.values
  end

(* --- connection flood ------------------------------------------------------------ *)

let stats_of client =
  match Client.request client (Json.Obj [ ("op", Json.String "stats") ]) with
  | Ok json -> json
  | Error msg -> Alcotest.failf "stats failed: %s" msg

let int_at json path = match at json path with Json.Int n -> n | _ -> -1

(* A default-config daemon takes 1,100 connections on top of one
   resident client: the excess is refused with kind connection_limit,
   counted, and the daemon keeps answering. *)
let test_connection_flood () =
  if Sys.file_exists cli then
    Daemon_script.with_daemon ~cli @@ fun sock ->
    let client = Client.connect_unix ~timeout_ms:30_000 sock in
    ignore (stats_of client);
    let flood = ref [] in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !flood;
        Client.close client)
      (fun () ->
        (try
           for _ = 1 to 1100 do
             let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
             flood := fd :: !flood;
             Unix.connect fd (Unix.ADDR_UNIX sock)
           done
         with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> ());
        let max_connections =
          Option.get (Server.default_config (Server.Unix_sock sock)).Server.max_connections
        in
        let excess = List.length !flood + 1 - max_connections in
        let rec settle tries =
          let n = int_at (stats_of client) [ "server"; "rejected_connections" ] in
          if n >= excess || tries = 0 then n
          else begin
            Unix.sleepf 0.05;
            settle (tries - 1)
          end
        in
        Alcotest.(check int) "excess connections counted" (max 0 excess) (settle 600);
        (match Client.request client (Json.Obj [ ("op", Json.String "health") ]) with
        | Ok health ->
            Alcotest.(check int) "health: accepted connections" (min (1 + List.length !flood)
              max_connections) (int_at health [ "inflight" ])
        | Error msg -> Alcotest.failf "health failed: %s" msg);
        if excess > 0 then begin
          (* The newest connection was refused: one typed line, then EOF. *)
          let buf = Bytes.create 4096 in
          let n = Unix.read (List.hd !flood) buf 0 4096 in
          let line = Bytes.sub_string buf 0 n in
          Alcotest.(check bool) "typed refusal" true (contains line {|"kind":"connection_limit"|})
        end)

(* A daemon out of descriptors must not spin on its listening socket:
   under [ulimit -n 24] (the child's own limit), 40 connections overrun
   it.  Failed accepts are counted, the acceptor's loop stays near idle
   for a second of saturation, a connected client keeps its answers,
   and every waiting client is served as the earlier ones close. *)
let test_accept_backs_off_out_of_fds () =
  if Sys.file_exists cli then begin
    let out_r, out_w = Unix.pipe () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process "/bin/sh"
        [| "/bin/sh"; "-c"; {|ulimit -n 24; exec "$0" serve --port 0|}; cli |]
        Unix.stdin out_w null
    in
    Unix.close out_w;
    Unix.close null;
    let ready = Unix.in_channel_of_descr out_r in
    let waiting = ref [] in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !waiting;
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        close_in ready)
    @@ fun () ->
    let port = Scanf.sscanf (input_line ready) "listening on 127.0.0.1:%d" Fun.id in
    let client = Client.connect_tcp ~timeout_ms:30_000 port in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    ignore (stats_of client);
    let request = {|{"op":"health"}|} ^ "\n" in
    for _ = 1 to 40 do
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      waiting := !waiting @ [ fd ];
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd request 0 (String.length request))
    done;
    let loop_turns () =
      match Client.request client (Json.Obj [ ("op", Json.String "metrics") ]) with
      | Ok json ->
          let text = match Json.member "output" json with Some (Json.String t) -> t | _ -> "" in
          List.fold_left
            (fun acc line ->
              match Scanf.sscanf line "slif_server_loop_iterations_total %f" Fun.id with
              | v -> int_of_float v
              | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> acc)
            (-1) (String.split_on_char '\n' text)
      | Error msg -> Alcotest.failf "metrics failed: %s" msg
    in
    Unix.sleepf 0.2;
    let t0 = loop_turns () in
    Unix.sleepf 1.0;
    let t1 = loop_turns () in
    let s1 = stats_of client in
    let turns = t1 - t0 in
    Alcotest.(check bool)
      (Printf.sprintf "acceptor idles while saturated (%d turns in 1 s)" turns)
      true (turns <= 100);
    Alcotest.(check bool) "failed accepts counted" true
      (int_at s1 [ "server"; "accept_errors" ] > 0);
    (* Each waiting client gets its answer once the ones before it close. *)
    let buf = Bytes.create 4096 in
    List.iteri
      (fun i fd ->
        let n = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
        Alcotest.(check bool)
          (Printf.sprintf "client %d answered" i)
          true
          (contains (Bytes.sub_string buf 0 n) {|"ok":true|});
        Unix.close fd;
        waiting := List.tl !waiting)
      !waiting;
    ignore (Client.request_raw client {|{"op":"shutdown"}|})
  end

(* [slif stats --watch] renders every refresh from one [stats] reply. *)
let test_cli_stats_one_request_per_refresh () =
  if Sys.file_exists cli then
    Daemon_script.with_daemon ~cli @@ fun sock ->
    let out = Filename.temp_file "slif_stats" ".out" in
    Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
    let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    let pid =
      Unix.create_process cli
        [| cli; "stats"; "--socket"; sock; "--watch"; "--count"; "3"; "--interval"; "0.01" |]
        Unix.stdin fd Unix.stderr
    in
    Unix.close fd;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "slif stats --watch failed");
    let text = read_file out in
    Alcotest.(check bool) "header line" true (contains text "inflight 1");
    let client = Client.connect_unix ~timeout_ms:30_000 sock in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    let by_op = at (stats_of client) [ "by_op" ] in
    Alcotest.(check string) "three refreshes, three stats requests, nothing else"
      {|{"stats":3}|} (Json.to_string by_op)

let suite =
  [
    Alcotest.test_case "renderers agree on one snapshot" `Quick test_renderers_agree;
    Alcotest.test_case "surfaces match the golden key set" `Slow test_surfaces_match_golden;
    Alcotest.test_case "connection flood is refused, daemon survives" `Slow
      test_connection_flood;
    Alcotest.test_case "slif stats: one request per refresh" `Slow
      test_cli_stats_one_request_per_refresh;
    Alcotest.test_case "accept backs off when out of descriptors" `Slow
      test_accept_backs_off_out_of_fds;
  ]
