(* The export scan: every [val] in a [lib/*/*.mli] must have a user in
   lib, bin, bench or slifbench outside its own module, or be named in
   [allowlist] with the reason it stays.  An unused export is code that
   only its own module reads; a test-only export is a second surface to
   keep in step.  Neither may come back unannounced.

   The scan is lexical.  It reads every [.ml] under lib, bin, bench and
   slifbench with comments and string literals blanked out, resolves
   [module X = P] aliases and [open]/[include]/[P.( ... )] opens, and
   counts a file as a user of [M.v] when it names [v] through a path
   that ends in [M] (with a mismatched library prefix rejected), or names
   a bare [v] in a file that opens [M].  A same-named value elsewhere can
   therefore hide a dead export, never invent one. *)

(* ---- lexing ---------------------------------------------------------- *)

type tok = Uid of string | Lid of string | Dot | Lparen | Other of char

let is_lower c = (c >= 'a' && c <= 'z') || c = '_'
let is_upper c = c >= 'A' && c <= 'Z'

let is_ident c =
  is_lower c || is_upper c || (c >= '0' && c <= '9') || c = '\''

(* Tokens of an OCaml source, comments and literals dropped. *)
let tokens src =
  let n = String.length src in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let rec skip_string i =
    if i >= n then n
    else
      match src.[i] with
      | '"' -> i + 1
      | '\\' -> skip_string (i + 2)
      | _ -> skip_string (i + 1)
  in
  (* [{id|...|id}] quoted strings. *)
  let quoted i =
    let j = ref (i + 1) in
    while !j < n && is_lower src.[!j] do incr j done;
    if !j < n && src.[!j] = '|' then (
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let k = ref (!j + 1) in
      while !k + m <= n && String.sub src !k m <> close do incr k done;
      Some (min n (!k + m)))
    else None
  in
  let rec skip_comment i depth =
    if i >= n then n
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then
      skip_comment (i + 2) (depth + 1)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else if src.[i] = '"' then skip_comment (skip_string (i + 1)) depth
    else skip_comment (i + 1) depth
  in
  let rec go i =
    if i < n then
      let c = src.[i] in
      if c = '(' && i + 1 < n && src.[i + 1] = '*' then go (skip_comment (i + 2) 1)
      else if c = '"' then (push (Other c); go (skip_string (i + 1)))
      else if c = '{' then
        match quoted i with
        | Some j -> push (Other c); go j
        | None -> push (Other c); go (i + 1)
      else if c = '\'' then
        (* A char literal, else a type variable's quote. *)
        if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then go (i + 3)
        else if i + 1 < n && src.[i + 1] = '\\' then (
          let j = ref (i + 2) in
          while !j < n && src.[!j] <> '\'' do incr j done;
          go (!j + 1))
        else go (i + 1)
      else if is_lower c || is_upper c then (
        let j = ref i in
        while !j < n && is_ident src.[!j] do incr j done;
        let s = String.sub src i (!j - i) in
        push (if is_upper c then Uid s else Lid s);
        go !j)
      else if c = '.' && i > 0 && is_ident src.[i - 1] then (push Dot; go (i + 1))
      else if c = '(' then (push Lparen; go (i + 1))
      else if c = ' ' || c = '\n' || c = '\t' || c = '\r' then go (i + 1)
      else (push (Other c); go (i + 1))
  in
  go 0;
  Array.of_list (List.rev !toks)

(* ---- exports --------------------------------------------------------- *)

(* An exported value: library, module path inside it, value name. *)
type export = { lib : string; path : string list; name : string }

let qualified e = String.concat "." (e.path @ [ e.name ])

(* The [val]s of one interface, nested [module X : sig] blocks included;
   [module type] bodies export nothing. *)
let interface_vals ~lib ~modname src =
  let t = tokens src in
  let n = Array.length t in
  let out = ref [] in
  (* Each open [sig]: its module name, or None for a module type. *)
  let stack = ref [] in
  let pending = ref None in
  for i = 0 to n - 1 do
    match t.(i) with
    | Lid "module" when i + 2 < n -> (
        match (t.(i + 1), t.(i + 2)) with
        | Lid "type", _ -> pending := Some None
        | Uid m, Other ':' -> pending := Some (Some m)
        | _ -> ())
    | Lid "sig" ->
        stack := (match !pending with Some p -> p | None -> None) :: !stack;
        pending := None
    | Lid "end" -> ( match !stack with _ :: s -> stack := s | [] -> ())
    | Lid "val" when i + 1 < n -> (
        match t.(i + 1) with
        | Lid name when List.for_all Option.is_some !stack ->
            let inner = List.rev_map Option.get !stack in
            out := { lib; path = modname :: inner; name } :: !out
        | _ -> ())
    | _ -> ()
  done;
  List.rev !out

(* ---- uses ------------------------------------------------------------ *)

(* The long identifiers of a file as (module path, value) with aliases
   expanded, and the module paths it opens. *)
let file_refs src =
  let t = tokens src in
  let n = Array.length t in
  let aliases = Hashtbl.create 8 in
  let expand = function
    | m :: rest as p -> (
        match Hashtbl.find_opt aliases m with Some q -> q @ rest | None -> p)
    | [] -> []
  in
  (* Read [U(.U)*] starting at [i]; return the path and the next index. *)
  let upath i =
    let rec go i acc =
      match t.(i) with
      | Uid u when i + 2 < n && t.(i + 1) = Dot -> (
          match t.(i + 2) with
          | Uid _ -> go (i + 2) (u :: acc)
          | _ -> (List.rev (u :: acc), i + 1))
      | Uid u -> (List.rev (u :: acc), i + 1)
      | _ -> (List.rev acc, i)
    in
    if i < n then go i [] else ([], i)
  in
  let refs = ref [] and opens = ref [] in
  let i = ref 0 in
  while !i < n do
    (match t.(!i) with
    | Lid "module" when !i + 3 < n -> (
        match (t.(!i + 1), t.(!i + 2)) with
        | Uid x, Other '=' -> (
            match t.(!i + 3) with
            | Uid _ ->
                let p, _ = upath (!i + 3) in
                Hashtbl.replace aliases x (expand p)
            | _ -> ())
        | _ -> ())
    | Lid ("open" | "include") when !i + 1 < n -> (
        let j = if t.(!i + 1) = Other '!' then !i + 2 else !i + 1 in
        match upath j with [], _ -> () | p, _ -> opens := expand p :: !opens)
    | Uid _ when !i = 0 || t.(!i - 1) <> Dot -> (
        let p, j = upath !i in
        let p = expand p in
        if j + 1 < n && t.(j) = Dot then
          match t.(j + 1) with
          | Lid v -> refs := (p, v) :: !refs
          | Lparen -> opens := p :: !opens
          | _ -> ())
    | _ -> ());
    incr i
  done;
  let bare = Hashtbl.create 64 in
  Array.iteri
    (fun k -> function
      | Lid v when k = 0 || t.(k - 1) <> Dot -> Hashtbl.replace bare v ()
      | _ -> ())
    t;
  (!refs, !opens, bare)

let rec is_suffix ~of_:p q =
  List.length q <= List.length p
  && (q = p || match p with _ :: r -> is_suffix ~of_:r q | [] -> false)

(* Does path [p], written in a file of library [file_lib] that opens
   [opens], name the module path [e.path] of library [e.lib]?  [libs]
   lists every wrapper name, so [Slif.Registry] never matches
   [Specs.Registry], and a bare [Registry] means the file's own library's
   module or an opened library's. *)
let names_module ~libs ~file_lib ~opens e p =
  is_suffix ~of_:p e.path
  &&
  match List.rev (List.filteri (fun k _ -> k < List.length p - List.length e.path) p) with
  | l :: _ when List.mem l libs -> l = e.lib
  | _ :: _ -> false
  | [] -> file_lib = Some e.lib || List.mem [ e.lib ] opens

(* ---- the tree -------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The source root: the build copy from [test/], else the working dir. *)
let root () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then ".." else "."

let ls dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.to_list (Sys.readdir dir) |> List.sort compare
  else []

let lib_name dir =
  let dune = Filename.concat dir "dune" in
  if not (Sys.file_exists dune) then None
  else
    let t = tokens (read_file dune) in
    let r = ref None in
    Array.iteri
      (fun k -> function
        | Lid "name" when k + 1 < Array.length t -> (
            match t.(k + 1) with
            | Lid l when !r = None -> r := Some (String.capitalize_ascii l)
            | _ -> ())
        | _ -> ())
      t;
    !r

type source = { file : string; file_lib : string option; modname : string }

(* Every library directory with its wrapper name, and every [.ml] that
   may use an export: the libraries', bin's, bench's and slifbench's. *)
let scan_tree root =
  let libdirs =
    List.filter_map
      (fun d ->
        let dir = Filename.concat (Filename.concat root "lib") d in
        Option.map (fun l -> (dir, l)) (lib_name dir))
      (ls (Filename.concat root "lib"))
  in
  let ml_in dir file_lib =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".ml" then
          Some
            {
              file = Filename.concat dir f;
              file_lib;
              modname = String.capitalize_ascii (Filename.chop_suffix f ".ml");
            }
        else None)
      (ls dir)
  in
  let sources =
    List.concat_map (fun (dir, l) -> ml_in dir (Some l)) libdirs
    @ List.concat_map
        (fun d -> ml_in (Filename.concat root d) None)
        [ "bin"; "bench"; "slifbench" ]
  in
  (libdirs, sources)

(* [(export, users)] for every interface [val] under [lib/], where users
   are the user files outside the export's own module. *)
let scan () =
  let root = root () in
  let libdirs, sources = scan_tree root in
  let libs = List.map snd libdirs in
  let exports =
    List.concat_map
      (fun (dir, lib) ->
        List.concat_map
          (fun f ->
            if Filename.check_suffix f ".mli" then
              interface_vals ~lib
                ~modname:(String.capitalize_ascii (Filename.chop_suffix f ".mli"))
                (read_file (Filename.concat dir f))
            else [])
          (ls dir))
      libdirs
  in
  let parsed =
    List.map (fun s -> (s, file_refs (read_file s.file))) sources
  in
  List.map
    (fun e ->
      let users =
        List.filter_map
          (fun (s, (refs, opens, bare)) ->
            let own = s.file_lib = Some e.lib && s.modname = List.hd e.path in
            let names p = names_module ~libs ~file_lib:s.file_lib ~opens e p in
            let used =
              (not own)
              && (List.exists (fun (p, v) -> v = e.name && names p) refs
                 || (Hashtbl.mem bare e.name && List.exists names opens))
            in
            if used then Some s.file else None)
          parsed
      in
      (e, users))
    exports

(* ---- the allowlist --------------------------------------------------- *)

(* Exports with no user outside their module in lib, bin, bench or
   slifbench, each with the reason it stays.  A [Module.*] entry covers
   every value of that module. *)
let allowlist : (string * string) list =
  [
    (* Test oracles: independent statements of a contract the tests
       compare production against. *)
    ("Vhdl.Pretty.*", "oracle: the print/parse round trip");
    ("Slif.Validate.*", "oracle: proper partitions (paper 2.2), synth validity");
    ("Slif.Text.of_string", "oracle: inverse of Text.to_string, the round-trip check");
    ("Slif.Decision.to_string", "oracle: writes the legacy text decisions the CLI reads");
    ("Flow.Interp.read_global", "oracle: the interpreter's variable state");
    ("Specsyn.Search.comps_for_node", "oracle: 2.2's feasibility rule, vs the engine's rows");
    ("Specsyn.Engine.breakdown", "oracle: engine = Cost.evaluate, term by term");
    ("Specsyn.Engine.bus_bitrate", "oracle: eq. 3 per bus, engine = estimator to the bit");
    (* Paper equations and algorithms. *)
    ("Slif.Estimate.transfer_time_us", "paper eq. 1: the transfer term");
    ("Slif.Estimate.chan_bitrate_mbps", "paper eq. 2");
    ("Slif.Estimate.cut_chans", "paper eq. 6: CutChans");
    ("Specsyn.Transform.*", "paper 3: modification of nodes and edges (EXPERIMENTS.md R5)");
    ("Specsyn.Cluster.closeness", "the clustering the paper's Results section sizes");
    ("Specsyn.Cluster.clusters", "the clustering the paper's Results section sizes");
    (* Used by the example programs. *)
    ("Flow.Interp.port_output", "examples/speccharts.ml");
    ("Flow.Interp.run_all_processes", "examples/profiling.ml");
    ("Slif_server.Protocol.output_field", "examples/client.ml");
    (* Test seams: an observation point a test needs and no production
       surface gives. *)
    ("Slif_store.Store.write_fd", "seam: the store writer on a given fd (the /dev/full case)");
    ("Slif_server.Server.accept", "seam: reads TCP_NODELAY off the accepted socket");
    ("Slif_server.Client.batch", "seam: the client side of the batch op");
    ("Slif_server.Client.pipeline_raw", "seam: the client side of pipelining");
    ("Slif_obs.Flight.snapshot", "seam: the decoded window by_trace filters");
    ("Slif_util.Pool.domains", "seam: the hardware cap on spawned domains");
    ("Slif_util.Prng.bool", "seam: the coin of the pinned seeded random walks");
    ("Specsyn.Alloc.single_cpu", "seam: the one-processor allocation with a size cap");
    ("Specsyn.Pareto.front", "seam: the sweep's non-dominated filter on hand-made points");
    ("Specsyn.Pareto.score", "seam: the sweep's per-point measure on the seed partition");
  ]

(* The names an allowlist entry may use for an export. *)
let keys e =
  [ e.lib ^ "." ^ qualified e; e.lib ^ "." ^ String.concat "." e.path ^ ".*" ]

let results = lazy (scan ())

let test_no_unlisted_dead_export () =
  let results = Lazy.force results in
  Alcotest.(check bool) "the scan finds the interfaces" true (List.length results > 100);
  let unlisted =
    List.filter_map
      (fun (e, users) ->
        if users = [] && not (List.exists (fun k -> List.mem_assoc k allowlist) (keys e))
        then Some (List.hd (keys e))
        else None)
      results
  in
  Alcotest.(check (list string)) "exports with no user and no allowlist entry" [] unlisted

(* Every entry still names an export, and no named export has gained a
   user (a [Module.*] entry is current while one of its values has none). *)
let test_allowlist_is_current () =
  let results = Lazy.force results in
  let current (entry, _) =
    let named = List.filter (fun (e, _) -> List.mem entry (keys e)) results in
    if String.ends_with ~suffix:".*" entry then List.exists (fun (_, u) -> u = []) named
    else named <> [] && List.for_all (fun (_, u) -> u = []) named
  in
  Alcotest.(check (list string)) "allowlist entries that are gone or now used" []
    (List.map fst (List.filter (fun a -> not (current a)) allowlist))

let suite =
  [
    Alcotest.test_case "no unlisted export without a user" `Quick
      test_no_unlisted_dead_export;
    Alcotest.test_case "allowlist names live unused exports" `Quick
      test_allowlist_is_current;
  ]
