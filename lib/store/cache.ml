let tech_fingerprint () =
  let names = List.map Tech.Parts.technology_name Tech.Parts.all in
  Printf.sprintf "techs=%s;store=%d" (String.concat "," names) Store.format_version

(* Length-prefix each component so concatenations cannot collide. *)
let key ~source ?profile () =
  let buf = Buffer.create (String.length source + 64) in
  let add s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  add source;
  add (match profile with None -> "<no-profile>" | Some p -> "profile:" ^ p);
  add (tech_fingerprint ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let entry_path ~dir ~key = Filename.concat dir (key ^ ".slifstore")

let rec ensure_dir dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then begin
    if dir <> "" && Sys.file_exists dir && not (Sys.is_directory dir) then
      raise (Store.Store_error (Store.Io (dir ^ ": not a directory")))
  end
  else begin
    ensure_dir (Filename.dirname dir);
    match Sys.mkdir dir 0o755 with
    | () -> ()
    (* Another domain or process made it between our check and our
       mkdir: the directory exists, which is all we wanted. *)
    | exception Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
    | exception Sys_error msg -> raise (Store.Store_error (Store.Io msg))
  end

let load_or_build ~dir ~source ?profile ~build () =
  ensure_dir dir;
  let source_md5 = Digest.to_hex (Digest.string source) in
  let k = key ~source ?profile () in
  let path = entry_path ~dir ~key:k in
  let provenance =
    { Store.pv_source_md5 = source_md5; pv_profile = profile; pv_tech = tech_fingerprint () }
  in
  let build_and_save status =
    let slif = build () in
    (* The build succeeded: a full or failing disk costs the next caller
       a rebuild, never this one its result. *)
    (match Store.save_slif ~path ~provenance slif with
    | () -> ()
    | exception Store.Store_error err ->
        Slif_obs.Counter.incr "store.cache_write_error";
        Slif_obs.Event.emit ~level:Slif_obs.Event.Warn
          ~fields:[ ("error", Slif_obs.Json.String (Store.error_message err)) ]
          "store.cache_write_error");
    (slif, status)
  in
  if Sys.file_exists path then begin
    match Store.load_slif ~path with
    | Ok (slif, prov) when prov.Store.pv_source_md5 = source_md5 ->
        Slif_obs.Counter.incr "store.cache_hit";
        (slif, `Hit)
    | Ok _ | Error _ ->
        (* Hash-collision paranoia or on-disk corruption: rebuild. *)
        Slif_obs.Counter.incr "store.cache_invalid";
        build_and_save `Rebuilt
  end
  else begin
    Slif_obs.Counter.incr "store.cache_miss";
    build_and_save `Miss
  end
