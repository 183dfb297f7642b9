(* A fixed request script driven through a spawned [slif serve], reduced
   to the shape of the daemon's telemetry: the key paths of the [stats]
   and [health] replies, the Prometheus families and series (name plus
   label keys) of [metrics], and the exact counters the script
   determines.  [test/golden/telemetry_surfaces.txt] is this module's
   rendering of one run; the telemetry test compares a live run to it. *)

module Json = Slif_obs.Json
module Client = Slif_server.Client

(* Hits, misses, a handler-level error, a malformed line (a daemon
   error, so [last_error] is set) and a batch with a malformed item. *)
let script =
  [
    {|{"op":"load","spec":"vol"}|};
    {|{"op":"estimate","spec":"vol"}|};
    {|{"op":"estimate","spec":"vol","bounds":true}|};
    {|{"op":"partition","spec":"vol","algo":"greedy"}|};
    {|{"op":"estimate","spec":"nosuch"}|};
    {|not json|};
    {|{"op":"batch","items":[{"op":"estimate","spec":"vol"},{"op":"frobnicate"}]}|};
    {|{"op":"traces"}|};
  ]

(* Leaf key paths, dotted; list elements contribute under [path[]]. *)
let key_paths json =
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let rec go prefix acc = function
    | Json.Obj [] | Json.List [] -> prefix :: acc
    | Json.Obj fields -> List.fold_left (fun acc (k, v) -> go (join prefix k) acc v) acc fields
    | Json.List items -> List.fold_left (go (prefix ^ "[]")) acc items
    | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _ -> prefix :: acc
  in
  List.sort_uniq compare (go "" [] json)

(* One exposition line reduced to its identity: [# TYPE] lines as they
   are, samples as [name{key,key}] without label values or the number. *)
let series_of_line line =
  if String.length line >= 6 && String.sub line 0 6 = "# TYPE" then Some line
  else if line = "" || line.[0] = '#' then None
  else
    let name_end =
      match String.index_opt line '{' with Some i -> i | None -> String.index line ' '
    in
    let name = String.sub line 0 name_end in
    if line.[name_end] <> '{' then Some name
    else begin
      (* key="value" pairs; values may hold escaped quotes. *)
      let keys = ref [] and i = ref (name_end + 1) in
      while line.[!i] <> '}' do
        let eq = String.index_from line !i '=' in
        keys := String.sub line !i (eq - !i) :: !keys;
        let j = ref (eq + 2) in
        while line.[!j] <> '"' do
          if line.[!j] = '\\' then incr j;
          incr j
        done;
        i := if line.[!j + 1] = ',' then !j + 2 else !j + 1
      done;
      Some (name ^ "{" ^ String.concat "," (List.rev !keys) ^ "}")
    end

let series text =
  List.sort_uniq compare (List.filter_map series_of_line (String.split_on_char '\n' text))

(* The figures the script fixes exactly, as [path value] lines. *)
let values stats =
  let int_at path =
    let rec go j = function
      | [] -> ( match j with Json.Int n -> string_of_int n | _ -> "?")
      | k :: rest -> ( match Json.member k j with Some v -> go v rest | None -> "?")
    in
    go stats path
  in
  let map_at path =
    match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some stats) path with
    | Some (Json.Obj fields) ->
        List.map
          (fun (k, _) -> String.concat "." (path @ [ k ]) ^ " " ^ int_at (path @ [ k ]))
          fields
    | _ -> [ String.concat "." path ^ " ?" ]
  in
  [
    "requests " ^ int_at [ "requests" ];
    "errors " ^ int_at [ "errors" ];
    "lru.hits " ^ int_at [ "lru"; "hits" ];
    "lru.misses " ^ int_at [ "lru"; "misses" ];
  ]
  @ map_at [ "by_op" ]
  @ map_at [ "server"; "per_worker" ]

type observation = {
  stats : string list;
  health : string list;
  metrics : string list;
  values : string list;
}

let render o =
  let section name lines = ("[" ^ name ^ "]") :: lines in
  String.concat "\n"
    (section "stats" o.stats @ section "health" o.health @ section "metrics" o.metrics
   @ section "values" o.values)
  ^ "\n"

let parse text =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  let tbl = Hashtbl.create 4 in
  let cur = ref "" in
  List.iter
    (fun l ->
      if String.length l > 2 && l.[0] = '[' && l.[String.length l - 1] = ']' then
        cur := String.sub l 1 (String.length l - 2)
      else Hashtbl.replace tbl !cur (l :: Option.value (Hashtbl.find_opt tbl !cur) ~default:[]))
    lines;
  let get name = List.rev (Option.value (Hashtbl.find_opt tbl name) ~default:[]) in
  { stats = get "stats"; health = get "health"; metrics = get "metrics"; values = get "values" }

let wait_for_socket sock =
  let rec go tries =
    if Sys.file_exists sock then ()
    else if tries = 0 then failwith "daemon socket never appeared"
    else begin
      Unix.sleepf 0.05;
      go (tries - 1)
    end
  in
  go 400

(* Spawn [cli serve] on a fresh Unix socket with the default config, run
   [f] against it, then shut it down and reap it. *)
let with_daemon ~cli f =
  let sock = Filename.temp_file "slif_script" ".sock" in
  Sys.remove sock;
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli [| cli; "serve"; "--socket"; sock |] Unix.stdin null null
  in
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      wait_for_socket sock;
      f sock)

let observe ~cli =
  with_daemon ~cli @@ fun sock ->
  let c = Client.connect_unix ~timeout_ms:30_000 sock in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Client.request_raw c {|{"op":"shutdown"}|}) with _ -> ());
      Client.close c)
    (fun () ->
      List.iter (fun line -> ignore (Client.request_raw c line)) script;
      let ask op =
        match Json.parse (Client.request_raw c (Printf.sprintf {|{"op":%S}|} op)) with
        | Ok j -> j
        | Error e -> failwith (op ^ ": " ^ e)
      in
      let stats = ask "stats" in
      let health = ask "health" in
      let text =
        match Json.member "output" (ask "metrics") with
        | Some (Json.String s) -> s
        | _ -> failwith "metrics: no output"
      in
      {
        stats = key_paths stats;
        health = key_paths health;
        metrics = series text;
        values = values stats;
      })
