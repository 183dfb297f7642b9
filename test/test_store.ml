(* The persistent store: exact round-trips, totality under corruption,
   and the content-addressed cache. *)

module Store = Slif_store.Store
module Cache = Slif_store.Cache
module Ops = Slif_server.Ops

let annotated_of (spec : Specs.Registry.spec) = Ops.annotated spec.source

let all_specs = Specs.Registry.all

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* A decision container's bytes, as [save_decision] writes them. *)
let decision_blob ?note part =
  let path = Filename.temp_file "slif_decision" ".slifstore" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save_decision ~path ?note part;
      In_channel.with_open_bin path In_channel.input_all)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let check_ok = function
  | Ok v -> v
  | Error err -> Alcotest.failf "unexpected store error: %s" (Store.error_message err)

(* --- Round trips ----------------------------------------------------------- *)

let test_roundtrip_structural () =
  List.iter
    (fun (spec : Specs.Registry.spec) ->
      let slif = annotated_of spec in
      let blob = Store.slif_to_string slif in
      let loaded, _prov = check_ok (Store.slif_of_string blob) in
      Alcotest.(check bool)
        (spec.spec_name ^ " round-trips structurally")
        true
        (Slif.Types.equal slif loaded))
    all_specs

(* The acceptance bar: estimates computed from the loaded graph equal the
   originals to the bit.  [estimate_output ~bounds:true] prints every
   process's min/avg/max execution time, so any float drift shows. *)
let test_roundtrip_estimates () =
  List.iter
    (fun (spec : Specs.Registry.spec) ->
      let slif = annotated_of spec in
      let loaded, _ = check_ok (Store.slif_of_string (Store.slif_to_string slif)) in
      Alcotest.(check string)
        (spec.spec_name ^ " estimates bit-identical")
        (Ops.estimate_output ~bounds:true slif)
        (Ops.estimate_output ~bounds:true loaded))
    all_specs

let test_roundtrip_serialization_stable () =
  let slif = annotated_of (List.hd all_specs) in
  let blob = Store.slif_to_string slif in
  let loaded, _ = check_ok (Store.slif_of_string blob) in
  Alcotest.(check string) "re-encoding is byte-identical" blob (Store.slif_to_string loaded)

let test_provenance_roundtrip () =
  let slif = Lazy.force Helpers.tiny_slif in
  let provenance =
    {
      Store.pv_source_md5 = Digest.to_hex (Digest.string "source");
      pv_profile = Some "branch p 0.25\n";
      pv_tech = Cache.tech_fingerprint ();
    }
  in
  let _, p = check_ok (Store.slif_of_string (Store.slif_to_string ~provenance slif)) in
  Alcotest.(check bool) "provenance travels" true (p = provenance)

let test_save_load_file () =
  let dir = temp_dir "slif_store" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let slif = Lazy.force Helpers.tiny_slif in
      let path = Filename.concat dir "tiny.slifstore" in
      Store.save_slif ~path slif;
      let loaded, _ = check_ok (Store.load_slif ~path) in
      Alcotest.(check bool) "file round-trip" true (Slif.Types.equal slif loaded))

(* --- Decisions ------------------------------------------------------------- *)

let test_decision_roundtrip () =
  let s, part = Helpers.all_on_cpu (Lazy.force Helpers.tiny_slif) in
  let blob = decision_blob ~note:"unit test" part in
  let loaded, note = check_ok (Store.decision_of_string s blob) in
  Alcotest.(check (option string)) "note travels" (Some "unit test") note;
  Alcotest.(check bool) "node assignments replayed" true
    (Helpers.assignments part = Helpers.assignments loaded);
  Alcotest.(check bool) "channel assignments replayed" true
    (Helpers.chan_assignments part = Helpers.chan_assignments loaded)

let test_decision_design_mismatch () =
  let _, part = Helpers.all_on_cpu (Lazy.force Helpers.tiny_slif) in
  let blob = decision_blob part in
  let other, _ = Helpers.all_on_cpu (Lazy.force Helpers.fuzzy_slif) in
  match Store.decision_of_string other blob with
  | Error (Store.Decode _) -> ()
  | Ok _ -> Alcotest.fail "decision replayed onto the wrong design"
  | Error err -> Alcotest.failf "wrong error: %s" (Store.error_message err)

let test_decision_rejects_slif_container () =
  let slif = Lazy.force Helpers.tiny_slif in
  let s, _ = Helpers.all_on_cpu slif in
  match Store.decision_of_string s (Store.slif_to_string slif) with
  | Error (Store.Decode _) -> ()
  | Ok _ -> Alcotest.fail "a SLIF container is not a decision"
  | Error err -> Alcotest.failf "wrong error: %s" (Store.error_message err)

(* --- Corruption: every damaged input yields a typed error ------------------ *)

let tiny_blob = lazy (Store.slif_to_string (Lazy.force Helpers.tiny_slif))

let test_wrong_magic () =
  let blob = Lazy.force tiny_blob in
  let bad = Bytes.of_string blob in
  Bytes.set bad 0 'X';
  (match Store.slif_of_string (Bytes.to_string bad) with
  | Error Store.Bad_magic -> ()
  | _ -> Alcotest.fail "flipped magic not detected");
  match Store.slif_of_string "short" with
  | Error Store.Bad_magic -> ()
  | _ -> Alcotest.fail "undersized input not rejected as bad magic"

let test_future_version () =
  let blob = Lazy.force tiny_blob in
  let with_version v =
    let bad = Bytes.of_string blob in
    Bytes.set_int32_le bad 8 (Int32.of_int v);
    Store.slif_of_string (Bytes.to_string bad)
  in
  (match with_version 99 with
  | Error (Store.Unsupported_version 99) -> ()
  | _ -> Alcotest.fail "future format version not rejected");
  (* Version 0 is not a format version at all: rejected, but not called
     newer than the tool. *)
  match with_version 0 with
  | Error (Store.Unsupported_version 0 as err) ->
      let msg = Store.error_message err in
      Alcotest.(check bool) (Printf.sprintf "%S does not say newer" msg) false
        (List.mem "newer" (String.split_on_char ' ' msg))
  | _ -> Alcotest.fail "format version 0 not rejected"

let test_truncations () =
  let blob = Lazy.force tiny_blob in
  (* Every strict prefix must fail with a typed error — never succeed,
     never raise. *)
  let len = String.length blob in
  for cut = 0 to len - 1 do
    if cut mod 7 = 0 || cut > len - 32 then
      match Store.slif_of_string (String.sub blob 0 cut) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "truncation to %d bytes decoded successfully" cut
  done

let test_crc_flip () =
  let blob = Lazy.force tiny_blob in
  (* Flip a byte inside the first section's payload (header is 12 magic+
     version bytes, then 12 bytes of section header). *)
  let bad = Bytes.of_string blob in
  let pos = 12 + 12 + 2 in
  Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor 0x40));
  match Store.slif_of_string (Bytes.to_string bad) with
  | Error (Store.Checksum_mismatch _) -> ()
  | Ok _ -> Alcotest.fail "payload corruption not caught by CRC"
  | Error err -> Alcotest.failf "wrong error: %s" (Store.error_message err)

(* Seeded fuzz over every bundled spec's blob: random single-byte flips
   and truncations must always produce a typed error (a flipped byte is
   always covered by the magic, the version field, a section header or a
   CRC-checked payload — nothing is slack).  [inspect] reads the same
   mutations and may accept or reject them, but never raises. *)
let fuzz_blob ?(decode = fun text -> Result.map ignore (Store.slif_of_string text)) name
    blob seed =
  let prng = Slif_util.Prng.create seed in
  let len = String.length blob in
  for _ = 1 to 200 do
    let mutated =
      if Slif_util.Prng.bool prng then begin
        let bad = Bytes.of_string blob in
        let pos = Slif_util.Prng.int prng len in
        let bit = 1 lsl Slif_util.Prng.int prng 8 in
        Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor bit));
        Bytes.to_string bad
      end
      else String.sub blob 0 (Slif_util.Prng.int prng len)
    in
    (match Store.inspect mutated with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "%s: inspect raised %s (seed %d)" name (Printexc.to_string e) seed);
    match decode mutated with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: corrupted blob decoded successfully (seed %d)" name seed
    | exception e ->
        Alcotest.failf "%s: corruption escaped as exception %s (seed %d)" name
          (Printexc.to_string e) seed
  done

let test_fuzz_corruption () =
  List.iter
    (fun (spec : Specs.Registry.spec) ->
      let blob = Store.slif_to_string (annotated_of spec) in
      fuzz_blob spec.spec_name blob 42)
    all_specs;
  let vol, part = Helpers.all_on_cpu (annotated_of (Specs.Registry.find_exn "vol")) in
  fuzz_blob
    ~decode:(fun text -> Result.map ignore (Store.decision_of_string vol text))
    "vol decision" (decision_blob part) 42;
  Helpers.replay_corpus "store_corruption" (fun seed ->
      fuzz_blob "tiny" (Lazy.force tiny_blob) seed)

let test_inspect () =
  let info = check_ok (Store.inspect (Lazy.force tiny_blob)) in
  Alcotest.(check int) "version" Store.format_version info.Store.si_version;
  Alcotest.(check bool) "kind" true (info.Store.si_kind = Store.Kslif);
  Alcotest.(check string) "design" "tiny" info.Store.si_design;
  let tags = List.map (fun s -> s.Store.sec_tag) info.Store.si_sections in
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " section present") true (List.mem tag tags))
    [ "META"; "NODE"; "PORT"; "CHAN"; "COMP" ]

(* --- Codec primitives: varint boundaries, CRC edges ------------------------ *)

module Codec = Slif_store.Codec
module Crc32 = Slif_store.Crc32

(* LEB128 and zigzag at every byte-count boundary plus the int63
   extremes: the values where an off-by-one in continuation bits or
   sign folding would corrupt silently. *)
let test_varint_boundaries () =
  let uint_cases =
    [ (0, 1); (1, 1); (127, 1); (128, 2); (16383, 2); (16384, 3); (max_int, 9) ]
  in
  List.iter
    (fun (v, bytes) ->
      let w = Codec.W.create () in
      Codec.W.uint w v;
      let s = Codec.W.contents w in
      Alcotest.(check int) (Printf.sprintf "uint %d width" v) bytes (String.length s);
      let r = Codec.R.of_string s in
      Alcotest.(check int) (Printf.sprintf "uint %d round-trip" v) v (Codec.R.uint r);
      Alcotest.(check bool) "consumed exactly" true (Codec.R.eof r))
    uint_cases;
  (match
     let w = Codec.W.create () in
     Codec.W.uint w (-1)
   with
  | () -> Alcotest.fail "negative uint accepted"
  | exception Invalid_argument _ -> ());
  (* Zigzag: small magnitudes of either sign stay one byte; the int63
     extremes survive the fold. *)
  let int_cases =
    [ 0; 1; -1; 63; -64; 64; -65; 8191; -8192; max_int; min_int; min_int + 1 ]
  in
  List.iter
    (fun v ->
      let w = Codec.W.create () in
      Codec.W.int w v;
      let r = Codec.R.of_string (Codec.W.contents w) in
      Alcotest.(check int) (Printf.sprintf "int %d round-trip" v) v (Codec.R.int r);
      Alcotest.(check bool) "consumed exactly" true (Codec.R.eof r))
    int_cases;
  let width v =
    let w = Codec.W.create () in
    Codec.W.int w v;
    String.length (Codec.W.contents w)
  in
  Alcotest.(check int) "zigzag 63 is one byte" 1 (width 63);
  Alcotest.(check int) "zigzag -64 is one byte" 1 (width (-64));
  Alcotest.(check int) "zigzag 64 is two bytes" 2 (width 64);
  Alcotest.(check int) "zigzag -65 is two bytes" 2 (width (-65))

let test_crc_empty () =
  Alcotest.(check int32) "crc of empty is zero" 0l (Crc32.string "");
  Alcotest.(check bool) "crc of a byte is not zero" true (Crc32.string "\x00" <> 0l)

(* A hand-assembled v2 container whose single section has a zero-length
   payload: the directory parses, the section fetch verifies the empty
   CRC, and the payload is "". *)
let test_v2_zero_length_section () =
  let b = Buffer.create 64 in
  let u32 v =
    for i = 0 to 3 do
      Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  let u64 v =
    for i = 0 to 7 do
      Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  Buffer.add_string b "SLIFSTOR";
  u32 Store.format_version_v2;
  let dir = Buffer.create 32 in
  let payload_off = 8 + 4 + 4 + 24 + 4 in
  Buffer.add_string dir "ZERO";
  (* entry: tag, u64 off, u64 len, u32 crc — built via the same helpers *)
  let saved = Buffer.contents b in
  Buffer.clear b;
  u64 payload_off;
  u64 0;
  u32 (Int32.to_int (Crc32.string "") land 0xffffffff);
  let entry_rest = Buffer.contents b in
  Buffer.clear b;
  Buffer.add_string b saved;
  u32 1;
  let dir_bytes = Buffer.contents dir ^ entry_rest in
  Buffer.add_string b dir_bytes;
  u32 (Int32.to_int (Crc32.string dir_bytes) land 0xffffffff);
  let blob = Buffer.contents b in
  let fetch ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length blob then ""
    else String.sub blob pos len
  in
  let _version, entries = check_ok (Store.directory ~total:(String.length blob) fetch) in
  Alcotest.(check int) "one entry" 1 (List.length entries);
  let payload = check_ok (Store.section ~fetch entries "ZERO") in
  Alcotest.(check string) "zero-length payload" "" payload

(* --- Format v2: round trips, inspection, laziness -------------------------- *)

let test_v2_roundtrip () =
  List.iter
    (fun (spec : Specs.Registry.spec) ->
      let slif = annotated_of spec in
      let blob = Store.slif_to_string ~version:Store.format_version_v2 slif in
      let loaded, _prov = check_ok (Store.slif_of_string blob) in
      Alcotest.(check bool)
        (spec.spec_name ^ " v2 round-trips") true
        (Slif.Types.equal slif loaded);
      Alcotest.(check string)
        (spec.spec_name ^ " v2 re-encoding stable")
        blob
        (Store.slif_to_string ~version:Store.format_version_v2 loaded))
    all_specs

let test_v2_smaller_than_v1 () =
  let slif = annotated_of (Specs.Registry.find_exn "fuzzy") in
  let v1 = String.length (Store.slif_to_string slif) in
  let v2 = String.length (Store.slif_to_string ~version:Store.format_version_v2 slif) in
  Alcotest.(check bool)
    (Printf.sprintf "tech interning shrinks the container (v1 %d, v2 %d)" v1 v2)
    true (v2 < v1)

let test_v2_inspect () =
  let slif = Lazy.force Helpers.tiny_slif in
  let blob = Store.slif_to_string ~version:Store.format_version_v2 slif in
  let info = check_ok (Store.inspect blob) in
  Alcotest.(check int) "version" Store.format_version_v2 info.Store.si_version;
  Alcotest.(check string) "design" "tiny" info.Store.si_design;
  let tags = List.map (fun s -> s.Store.sec_tag) info.Store.si_sections in
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " section present") true (List.mem tag tags))
    [ "META"; "PROV"; "TECH"; "NODE"; "PORT"; "CHAN"; "COMP" ];
  (* The recorded offsets really frame the payloads: CRC them in place. *)
  List.iter
    (fun (s : Store.section_info) ->
      Alcotest.(check int32)
        (s.Store.sec_tag ^ " offset/size frame the payload")
        s.Store.sec_crc
        (Crc32.string (String.sub blob s.Store.sec_offset s.Store.sec_size)))
    info.Store.si_sections

let test_v2_fuzz_corruption () =
  let blob =
    Store.slif_to_string ~version:Store.format_version_v2 (Lazy.force Helpers.tiny_slif)
  in
  fuzz_blob "tiny-v2" blob 43

let test_lazy_store () =
  let module Lazy_store = Slif_store.Lazy_store in
  let slif = annotated_of (Specs.Registry.find_exn "fuzzy") in
  let path = Filename.temp_file "slif_lazy" ".slifstore" in
  (* The decode counter only counts while the registry records. *)
  Slif_obs.Registry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Slif_obs.Registry.disable ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save_slif ~path ~version:Store.format_version_v2 slif;
      let decodes () = Slif_obs.Counter.get "store.lazy.full_decode" in
      let before = decodes () in
      let h =
        match Lazy_store.open_file path with
        | Ok h -> h
        | Error err -> Alcotest.failf "open_file: %s" (Store.error_message err)
      in
      (* Metadata queries decode no graph section. *)
      let m = Lazy_store.meta h in
      Alcotest.(check int) "META node count"
        (Array.length slif.Slif.Types.nodes)
        m.Store.vm_nodes;
      Alcotest.(check int) "META channel count"
        (Array.length slif.Slif.Types.chans)
        m.Store.vm_chans;
      Alcotest.(check string) "design" slif.Slif.Types.design_name
        (Lazy_store.meta h).Store.vm_design;
      Alcotest.(check bool) "decoded-bytes estimate is positive" true
        (Lazy_store.decoded_bytes_estimate h > 0);
      Alcotest.(check bool) "not decoded yet" false (Lazy_store.decoded h);
      Alcotest.(check int) "no decode counted" before (decodes ());
      (* Forcing decodes once; the result is exact and memoized. *)
      let loaded, _prov =
        match Lazy_store.slif h with
        | Ok r -> r
        | Error err -> Alcotest.failf "slif: %s" (Store.error_message err)
      in
      Alcotest.(check bool) "decode is exact" true (Slif.Types.equal slif loaded);
      Alcotest.(check bool) "decoded now" true (Lazy_store.decoded h);
      Alcotest.(check int) "one decode counted" (before + 1) (decodes ());
      ignore (check_ok (Lazy_store.slif h));
      Alcotest.(check int) "second force is memoized" (before + 1) (decodes ()))

let test_lazy_store_rejects_v1 () =
  let module Lazy_store = Slif_store.Lazy_store in
  let slif = Lazy.force Helpers.tiny_slif in
  let path = Filename.temp_file "slif_lazy_v1" ".slifstore" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save_slif ~path slif;
      match Lazy_store.open_file path with
      | Error (Store.Unsupported_version 1) -> ()
      | Ok _ -> Alcotest.fail "v1 container opened lazily"
      | Error err -> Alcotest.failf "wrong error: %s" (Store.error_message err))

(* Opening a large container must not pull the graph onto the heap:
   the resident cost of a handle is the directory + META, not the
   decoded estimate. *)
let test_lazy_store_heap_bound () =
  let module Lazy_store = Slif_store.Lazy_store in
  let p = Slif_synth.Synth.default_params ~seed:11 ~nodes:50_000 Slif_synth.Synth.Mixed in
  let slif = Slif_synth.Synth.generate p in
  let path = Filename.temp_file "slif_lazy_big" ".slifstore" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save_slif ~path ~version:Store.format_version_v2 slif;
      Gc.full_major ();
      let before = (Gc.quick_stat ()).Gc.heap_words in
      let h =
        match Lazy_store.open_file path with
        | Ok h -> h
        | Error err -> Alcotest.failf "open_file: %s" (Store.error_message err)
      in
      Gc.full_major ();
      let after = (Gc.quick_stat ()).Gc.heap_words in
      let grown_bytes = (after - before) * (Sys.word_size / 8) in
      let estimate = Lazy_store.decoded_bytes_estimate h in
      Alcotest.(check bool)
        (Printf.sprintf
           "metadata-only open stays small (grew %d bytes, decoded estimate %d)"
           grown_bytes estimate)
        true
        (grown_bytes < estimate / 4);
      Alcotest.(check bool) "still not decoded" false (Lazy_store.decoded h))

(* A directory entry whose offset + length sum wraps past max_int used
   to slip through the bounds check and reach an out-of-bounds mmap
   read; both the string and the mapped decoder must answer with a
   typed error instead. *)
let test_v2_overflowing_directory () =
  let blob =
    Store.slif_to_string ~version:Store.format_version_v2 (Lazy.force Helpers.tiny_slif)
  in
  let bad = Bytes.of_string blob in
  let count = Int32.to_int (Bytes.get_int32_le bad 12) in
  Alcotest.(check bool) "container has sections" true (count > 0);
  (* Entry 0 sits at 16: tag (4), offset (u64), length (u64), crc (u32).
     max_int - 1000 + 2000 wraps negative, defeating a summed check. *)
  Bytes.set_int64_le bad 20 (Int64.of_int (max_int - 1000));
  Bytes.set_int64_le bad 28 2000L;
  (* Re-seal the directory CRC so only the bounds check can object. *)
  let dir = Bytes.sub_string bad 16 (count * 24) in
  Bytes.set_int32_le bad (16 + (count * 24)) (Slif_store.Crc32.string dir);
  let text = Bytes.to_string bad in
  (match Store.slif_of_string text with
  | Error (Store.Truncated _) -> ()
  | Ok _ -> Alcotest.fail "overflowing directory entry decoded successfully"
  | Error err -> Alcotest.failf "wrong error: %s" (Store.error_message err)
  | exception e -> Alcotest.failf "escaped as exception %s" (Printexc.to_string e));
  let path = Filename.temp_file "slif_overflow" ".slifstore" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      match Slif_store.Lazy_store.open_file path with
      | Error (Store.Truncated _) -> ()
      | Ok _ -> Alcotest.fail "overflowing directory entry opened lazily"
      | Error err -> Alcotest.failf "wrong error: %s" (Store.error_message err)
      | exception e -> Alcotest.failf "escaped as exception %s" (Printexc.to_string e))

(* The handle's memo is weak: once the caller's reference dies the
   decoded graph is collectable, so a long-lived handle (the daemon's
   handle cache) never pins a decode past LRU eviction. *)
let test_lazy_store_memo_release () =
  let module Lazy_store = Slif_store.Lazy_store in
  let slif = annotated_of (Specs.Registry.find_exn "fuzzy") in
  let path = Filename.temp_file "slif_lazy_weak" ".slifstore" in
  Slif_obs.Registry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Slif_obs.Registry.disable ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save_slif ~path ~version:Store.format_version_v2 slif;
      let decodes () = Slif_obs.Counter.get "store.lazy.full_decode" in
      let before = decodes () in
      let h =
        match Lazy_store.open_file path with
        | Ok h -> h
        | Error err -> Alcotest.failf "open_file: %s" (Store.error_message err)
      in
      (* The decoded graph's only strong reference lives (and dies) in
         this helper's frame. *)
      let decode_nodes () =
        match Lazy_store.slif h with
        | Ok (s, _) ->
            Alcotest.(check bool) "memoized while referenced" true
              (Lazy_store.decoded h);
            Array.length s.Slif.Types.nodes
        | Error err -> Alcotest.failf "slif: %s" (Store.error_message err)
      in
      let n = decode_nodes () in
      Alcotest.(check int) "decode is complete" (Array.length slif.Slif.Types.nodes) n;
      Alcotest.(check int) "one decode counted" (before + 1) (decodes ());
      Gc.full_major ();
      Alcotest.(check bool) "memo released after GC" false (Lazy_store.decoded h);
      (* A later force decodes afresh — the handle held no copy. *)
      ignore (decode_nodes ());
      Alcotest.(check int) "release forces a real re-decode" (before + 2) (decodes ()))

(* Staleness: [save_slif] regenerates by atomic rename, so the mapped
   inode no longer matches the path. *)
let test_lazy_store_stale () =
  let module Lazy_store = Slif_store.Lazy_store in
  let slif = Lazy.force Helpers.tiny_slif in
  let path = Filename.temp_file "slif_lazy_stale" ".slifstore" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save_slif ~path ~version:Store.format_version_v2 slif;
      let h =
        match Lazy_store.open_file path with
        | Ok h -> h
        | Error err -> Alcotest.failf "open_file: %s" (Store.error_message err)
      in
      Alcotest.(check bool) "fresh handle is current" false (Lazy_store.stale h);
      Store.save_slif ~path ~version:Store.format_version_v2 slif;
      Alcotest.(check bool) "regeneration detected" true (Lazy_store.stale h);
      Sys.remove path;
      Alcotest.(check bool) "unlinked file detected" true (Lazy_store.stale h))

(* --- Cache ----------------------------------------------------------------- *)

let test_cache_key_sensitivity () =
  let k = Cache.key ~source:"abc" () in
  Alcotest.(check bool) "source changes key" true (k <> Cache.key ~source:"abd" ());
  Alcotest.(check bool) "profile changes key" true
    (k <> Cache.key ~source:"abc" ~profile:"p" ());
  Alcotest.(check bool) "empty profile differs from none" true
    (Cache.key ~source:"abc" ~profile:"" () <> k);
  Alcotest.(check string) "key is deterministic" k (Cache.key ~source:"abc" ())

let test_cache_hit_miss_rebuild () =
  let dir = temp_dir "slif_cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let source = Helpers.tiny_source in
      let builds = ref 0 in
      let build () =
        incr builds;
        Ops.annotated source
      in
      let load () = Cache.load_or_build ~dir ~source ~build () in
      let slif1, o1 = load () in
      let slif2, o2 = load () in
      Alcotest.(check bool) "first access misses" true (o1 = `Miss);
      Alcotest.(check bool) "second access hits" true (o2 = `Hit);
      Alcotest.(check int) "built exactly once" 1 !builds;
      Alcotest.(check bool) "cached graph identical" true (Slif.Types.equal slif1 slif2);
      (* Corrupt the entry: the next access rebuilds instead of trusting it. *)
      let entry = Filename.concat dir (Sys.readdir dir).(0) in
      let oc = open_out_bin entry in
      output_string oc "garbage";
      close_out oc;
      let slif3, o3 = load () in
      Alcotest.(check bool) "corrupt entry rebuilt" true (o3 = `Rebuilt);
      Alcotest.(check int) "rebuild ran the builder" 2 !builds;
      Alcotest.(check bool) "rebuilt graph identical" true (Slif.Types.equal slif1 slif3))

let test_cache_unusable_dir () =
  let file = Filename.temp_file "slif_cache" ".notadir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let dir = Filename.concat file "sub" in
      match
        Cache.load_or_build ~dir ~source:"x" ~build:(fun () -> Lazy.force Helpers.tiny_slif) ()
      with
      | _ -> Alcotest.fail "unusable cache dir accepted"
      | exception Store.Store_error (Store.Io _) -> ())

(* --- Frozen containers ------------------------------------------------------

   Every other case encodes and decodes with the same build, so a codec
   change made symmetrically on both sides would pass them.  These two
   files were written by an older build ([slif store write vol -o ...]
   and [slif synth --nodes 64 --seed 1 -o ...]) and are never
   regenerated: the reader must still decode them to the same graph, and
   the writer must still produce them byte for byte. *)
let test_frozen_containers () =
  let frozen path expected =
    let text = check_ok (Store.read_file path) in
    let loaded, provenance = check_ok (Store.slif_of_string text) in
    Alcotest.(check bool) (path ^ " decodes to the expected graph") true
      (Slif.Types.equal expected loaded);
    let version = (check_ok (Store.inspect text)).Store.si_version in
    Alcotest.(check bool) (path ^ " re-encodes byte for byte") true
      (String.equal text (Store.slif_to_string ~version ~provenance loaded))
  in
  frozen "golden/vol.v1.slifstore" (annotated_of (Specs.Registry.find_exn "vol"));
  frozen "golden/synth64.v2.slifstore"
    (Slif_synth.Synth.generate
       (Slif_synth.Synth.default_params ~seed:1 ~nodes:64 Slif_synth.Synth.Mixed))

(* Truncating a mapped store in place used to kill the process with
   SIGBUS on the next forced decode; the handle now answers with a typed
   error. *)
let test_lazy_store_truncated_under_mapping () =
  let module Lazy_store = Slif_store.Lazy_store in
  let slif =
    Slif_synth.Synth.generate
      (Slif_synth.Synth.default_params ~seed:1 ~nodes:20_000 Slif_synth.Synth.Mixed)
  in
  let path = Filename.temp_file "slif_lazy_trunc" ".slifstore" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save_slif ~path ~version:Store.format_version_v2 slif;
      let h = check_ok (Lazy_store.open_file path) in
      Unix.truncate path 4096;
      (match Lazy_store.slif h with
      | Error (Store.Truncated _) -> ()
      | Ok _ -> Alcotest.fail "decoded a store truncated under its mapping"
      | Error err -> Alcotest.failf "wrong error: %s" (Store.error_message err));
      Alcotest.(check bool) "the error is not memoized" false (Lazy_store.decoded h))

(* A handle names the inode it opened, not the path: once [save_slif]
   renames a different graph over the path, or the path is unlinked, a
   force answers with a typed error rather than decoding the new bytes
   under the old directory. *)
let test_lazy_store_replaced () =
  let module Lazy_store = Slif_store.Lazy_store in
  let synth seed =
    Slif_synth.Synth.generate
      (Slif_synth.Synth.default_params ~seed ~nodes:200 Slif_synth.Synth.Mixed)
  in
  let path = Filename.temp_file "slif_lazy_replaced" ".slifstore" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save_slif ~path ~version:Store.format_version_v2 (synth 1);
      let h = check_ok (Lazy_store.open_file path) in
      let replacement = synth 2 in
      Store.save_slif ~path ~version:Store.format_version_v2
        ~provenance:{ Store.pv_source_md5 = "replacement"; pv_profile = None; pv_tech = "" }
        replacement;
      let refused what = function
        | Ok _ -> Alcotest.failf "%s read the replacement under the old directory" what
        | Error _ -> ()
      in
      refused "slif" (Lazy_store.slif h);
      Alcotest.(check bool) "the error is not memoized" false (Lazy_store.decoded h);
      let fresh, _ = check_ok (Lazy_store.slif (check_ok (Lazy_store.open_file path))) in
      Alcotest.(check bool) "a reopened handle decodes the replacement" true
        (Slif.Types.equal replacement fresh);
      Sys.remove path;
      refused "slif after unlink" (Lazy_store.slif h))

(* Handles read with read(2) on a descriptor opened per operation, so
   neither an open handle nor a forced decode leaves one behind. *)
let test_lazy_store_no_fd_held () =
  let module Lazy_store = Slif_store.Lazy_store in
  let fd_dir = "/proc/self/fd" in
  if Sys.file_exists fd_dir then begin
    let slif =
      Slif_synth.Synth.generate
        (Slif_synth.Synth.default_params ~seed:1 ~nodes:200 Slif_synth.Synth.Mixed)
    in
    let path = Filename.temp_file "slif_lazy_fds" ".slifstore" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Store.save_slif ~path ~version:Store.format_version_v2 slif;
        let fds () = Array.length (Sys.readdir fd_dir) in
        let before = fds () in
        let handles = List.init 50 (fun _ -> check_ok (Lazy_store.open_file path)) in
        let graphs = List.map (fun h -> fst (check_ok (Lazy_store.slif h))) handles in
        Alcotest.(check int) "descriptors after 50 opens and decodes" before (fds ());
        Alcotest.(check int) "every handle decoded" 50 (List.length graphs))
  end

(* Known answer, then every window of a random string against a bytewise
   reference: unaligned heads and tails, and bodies of every length mod 8,
   go through the sliced loop and its byte-at-a-time remainder. *)
let test_crc_known_answers () =
  Alcotest.(check int32) "CRC-32 check value" 0xCBF43926l (Crc32.string "123456789");
  let reference s ~pos ~len =
    let crc = ref 0xFFFFFFFF in
    for i = pos to pos + len - 1 do
      crc := !crc lxor Char.code s.[i];
      for _ = 0 to 7 do
        crc := if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
      done
    done;
    Int32.of_int (!crc lxor 0xFFFFFFFF)
  in
  let prng = Slif_util.Prng.create 11 in
  let s = String.init 64 (fun _ -> Char.chr (Slif_util.Prng.int prng 256)) in
  for pos = 0 to 64 do
    for len = 0 to 64 - pos do
      let expected = reference s ~pos ~len in
      let got = Crc32.string (String.sub s pos len) in
      if got <> expected then
        Alcotest.failf "Crc32 of bytes %d..%d = %08lx, bytewise %08lx" pos (pos + len) got
          expected
    done
  done

(* --- Writes that tell the truth ---------------------------------------------

   A store write that fails must say so: a buffered channel closed with
   [close_out_noerr] once reported success for a flush that failed with
   ENOSPC, and the rename then installed the short file over a good
   store.  [/dev/full] fails every write with ENOSPC. *)
let test_writer_reports_full_disk () =
  if Sys.file_exists "/dev/full" then begin
    let fd = Unix.openfile "/dev/full" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match Store.write_fd ~file:"/dev/full" fd (Lazy.force tiny_blob) with
        | () -> Alcotest.fail "a write to a full device reported success"
        | exception Store.Store_error (Store.Io msg) ->
            Alcotest.(check bool) ("the error names ENOSPC: " ^ msg) true
              (contains msg "ENOSPC"))
  end

(* A failed cache write still serves the graph it built, counts
   [store.cache_write_error] and leaves no temp file behind.  The entry
   path is made a directory, so the writer's rename fails. *)
let test_cache_write_error_serves_build () =
  let dir = temp_dir "slif_cache_wfail" in
  Slif_obs.Registry.reset ();
  Slif_obs.Registry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Slif_obs.Registry.disable ();
      Slif_obs.Registry.reset ();
      rm_rf dir)
    (fun () ->
      let source = Specs.Spec_vol.text in
      let build () = Ops.annotated source in
      let first, _ = Cache.load_or_build ~dir ~source ~build () in
      let entry = Filename.concat dir (Sys.readdir dir).(0) in
      Sys.remove entry;
      Unix.mkdir entry 0o755;
      let slif, outcome = Cache.load_or_build ~dir ~source ~build () in
      Alcotest.(check bool) "rebuilt" true (outcome = `Rebuilt);
      Alcotest.(check bool) "the built graph is served" true (Slif.Types.equal first slif);
      Alcotest.(check int) "write error counted" 1
        (Slif_obs.Counter.get "store.cache_write_error");
      Alcotest.(check (list string)) "no temp file left" [ Filename.basename entry ]
        (Array.to_list (Sys.readdir dir)))

(* Two domains of one process save the same key over and over: each
   writer has its own temp file, so every load in between and after is
   whole and bit-exact. *)
let test_concurrent_saves_one_key () =
  let dir = temp_dir "slif_store_race" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "synth.slifstore" in
      let slif =
        Slif_synth.Synth.generate
          (Slif_synth.Synth.default_params ~seed:1 ~nodes:200 Slif_synth.Synth.Mixed)
      in
      let expected = Store.slif_to_string slif in
      let saver () =
        let bad = ref 0 in
        for _ = 1 to 200 do
          Store.save_slif ~path slif;
          match Store.read_file path with
          | Ok text when text = expected -> ()
          | Ok _ | Error _ -> incr bad
        done;
        !bad
      in
      let other = Domain.spawn saver in
      let mine = saver () in
      let bad = mine + Domain.join other in
      Alcotest.(check int) "every load whole and bit-exact" 0 bad;
      Alcotest.(check bool) "final load Ok" true
        (match Store.load_slif ~path with
        | Ok (loaded, _) -> Slif.Types.equal slif loaded
        | Error _ -> false);
      Alcotest.(check (list string)) "no temp file left" [ "synth.slifstore" ]
        (Array.to_list (Sys.readdir dir)))

(* Two domains make the same fresh cache directories: whichever loses a
   [mkdir] race finds the directory made and goes on, so no load fails. *)
let test_concurrent_cache_dirs () =
  let root = temp_dir "slif_cache_dirs" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let slif = Lazy.force Helpers.tiny_slif in
      let dirs = Array.init 200 (fun i -> Filename.concat root (Printf.sprintf "d%03d" i)) in
      let loader () =
        Array.fold_left
          (fun failed dir ->
            match Cache.load_or_build ~dir ~source:"x" ~build:(fun () -> slif) () with
            | _ -> failed
            | exception Store.Store_error _ -> failed + 1)
          0 dirs
      in
      let other = Domain.spawn loader in
      let mine = loader () in
      Alcotest.(check int) "every load Ok" 0 (mine + Domain.join other))

let suite =
  [
    Alcotest.test_case "round-trip structural (all specs)" `Quick test_roundtrip_structural;
    Alcotest.test_case "round-trip estimates to the bit" `Quick test_roundtrip_estimates;
    Alcotest.test_case "re-encoding stable" `Quick test_roundtrip_serialization_stable;
    Alcotest.test_case "provenance round-trip" `Quick test_provenance_roundtrip;
    Alcotest.test_case "save/load file" `Quick test_save_load_file;
    Alcotest.test_case "decision round-trip" `Quick test_decision_roundtrip;
    Alcotest.test_case "decision design mismatch" `Quick test_decision_design_mismatch;
    Alcotest.test_case "decision rejects slif container" `Quick test_decision_rejects_slif_container;
    Alcotest.test_case "wrong magic" `Quick test_wrong_magic;
    Alcotest.test_case "future version" `Quick test_future_version;
    Alcotest.test_case "truncations all rejected" `Quick test_truncations;
    Alcotest.test_case "CRC catches payload flip" `Quick test_crc_flip;
    Alcotest.test_case "fuzz: corruption is total" `Slow test_fuzz_corruption;
    Alcotest.test_case "inspect" `Quick test_inspect;
    Alcotest.test_case "varint boundaries" `Quick test_varint_boundaries;
    Alcotest.test_case "CRC of empty input" `Quick test_crc_empty;
    Alcotest.test_case "v2 zero-length section" `Quick test_v2_zero_length_section;
    Alcotest.test_case "v2 round-trip (all specs)" `Quick test_v2_roundtrip;
    Alcotest.test_case "v2 smaller than v1" `Quick test_v2_smaller_than_v1;
    Alcotest.test_case "v2 inspect" `Quick test_v2_inspect;
    Alcotest.test_case "v2 fuzz: corruption is total" `Slow test_v2_fuzz_corruption;
    Alcotest.test_case "lazy store: metadata without decode" `Quick test_lazy_store;
    Alcotest.test_case "lazy store rejects v1" `Quick test_lazy_store_rejects_v1;
    Alcotest.test_case "lazy store heap bound" `Quick test_lazy_store_heap_bound;
    Alcotest.test_case "v2 overflowing directory rejected" `Quick
      test_v2_overflowing_directory;
    Alcotest.test_case "lazy store memo released on drop" `Quick
      test_lazy_store_memo_release;
    Alcotest.test_case "lazy store staleness" `Quick test_lazy_store_stale;
    Alcotest.test_case "cache key sensitivity" `Quick test_cache_key_sensitivity;
    Alcotest.test_case "cache hit/miss/rebuild" `Quick test_cache_hit_miss_rebuild;
    Alcotest.test_case "cache unusable dir" `Quick test_cache_unusable_dir;
    Alcotest.test_case "frozen containers from an older build" `Quick
      test_frozen_containers;
    Alcotest.test_case "lazy store truncated under its mapping" `Quick
      test_lazy_store_truncated_under_mapping;
    Alcotest.test_case "lazy store replaced under its handle" `Quick
      test_lazy_store_replaced;
    Alcotest.test_case "lazy store holds no descriptor" `Quick test_lazy_store_no_fd_held;
    Alcotest.test_case "CRC known answers" `Quick test_crc_known_answers;
    Alcotest.test_case "writer reports a full disk" `Quick test_writer_reports_full_disk;
    Alcotest.test_case "failed cache write serves the build" `Quick
      test_cache_write_error_serves_build;
    Alcotest.test_case "two domains save one key" `Quick test_concurrent_saves_one_key;
    Alcotest.test_case "two domains make one cache dir" `Quick test_concurrent_cache_dirs;
  ]
