type error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int
  | Truncated of string
  | Checksum_mismatch of string
  | Decode of string

(* v1 is the default write format (content-addressed cache keys and the
   golden corpus are pinned to its bytes); v2 adds the offset-indexed
   section directory that makes containers lazily decodable. *)
let format_version = 1
let format_version_v2 = 2
let max_format_version = 2
let tool_name = "slif-store/1"

let error_message = function
  | Io msg -> msg
  | Bad_magic -> "not a SLIF store file (bad magic)"
  | Unsupported_version v when v > max_format_version ->
      Printf.sprintf "store format version %d is newer than this tool (max %d)" v
        max_format_version
  | Unsupported_version v ->
      Printf.sprintf "unsupported store format version %d (this tool reads 1 to %d)" v
        max_format_version
  | Truncated what -> Printf.sprintf "truncated store file (%s)" what
  | Checksum_mismatch tag -> Printf.sprintf "checksum mismatch in section %S" tag
  | Decode msg -> Printf.sprintf "malformed store file: %s" msg

exception Store_error of error

let magic = "SLIFSTOR"

type provenance = {
  pv_source_md5 : string;
  pv_profile : string option;
  pv_tech : string;
}

let no_provenance = { pv_source_md5 = ""; pv_profile = None; pv_tech = "" }

type kind = Kslif | Kdecision

let ( let* ) = Result.bind

(* --- Container framing -----------------------------------------------------

   v1 frames sections back-to-back, each [tag | u32 len | u32 crc |
   payload], so reaching any section means walking every header before
   it.  v2 puts a directory up front:

     magic | u32 version=2 | u32 count | count x (tag4, u64 off, u64 len,
     u32 crc) | u32 dir-crc | payloads...

   so a reader opens the file, verifies ~a hundred directory bytes, and
   then decodes exactly the sections it needs.  Both read into one
   section table; each payload's CRC is checked when (and only when)
   that payload is fetched. *)

type section_info = {
  sec_tag : string;
  sec_offset : int;  (* byte offset of the payload within the container *)
  sec_size : int;
  sec_crc : int32;
}

let add_u32_le buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_u64_le buf v = Buffer.add_int64_le buf (Int64.of_int v)

let container sections =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf magic;
  add_u32_le buf format_version;
  List.iter
    (fun (tag, payload) ->
      assert (String.length tag = 4);
      Buffer.add_string buf tag;
      add_u32_le buf (String.length payload);
      Buffer.add_int32_le buf (Crc32.string payload);
      Buffer.add_string buf payload)
    sections;
  Buffer.contents buf

let v2_dir_entry_size = 24
let v2_header_size count = 8 + 4 + 4 + (count * v2_dir_entry_size) + 4

let v2_container sections =
  let count = List.length sections in
  let dir = Buffer.create (count * v2_dir_entry_size) in
  let off = ref (v2_header_size count) in
  List.iter
    (fun (tag, payload) ->
      assert (String.length tag = 4);
      Buffer.add_string dir tag;
      add_u64_le dir !off;
      add_u64_le dir (String.length payload);
      Buffer.add_int32_le dir (Crc32.string payload);
      off := !off + String.length payload)
    sections;
  let dir = Buffer.contents dir in
  let buf = Buffer.create !off in
  Buffer.add_string buf magic;
  add_u32_le buf format_version_v2;
  add_u32_le buf count;
  Buffer.add_string buf dir;
  Buffer.add_int32_le buf (Crc32.string dir);
  List.iter (fun (_, payload) -> Buffer.add_string buf payload) sections;
  Buffer.contents buf

let u32_le s pos = Int32.to_int (Int32.logand (String.get_int32_le s pos) 0xFFFFFFFFl)

(* Read the section table of either format through a [fetch ~pos ~len]
   callback, so the same code serves an in-memory string and ranges
   read from a file.  Every entry is bounds-checked against [total] in subtraction
   form: [off + len] can wrap past max_int on a crafted table, so never
   sum untrusted offsets. *)
let directory ~total fetch =
  let prelude = String.length magic + 4 in
  let add acc e =
    if List.exists (fun x -> x.sec_tag = e.sec_tag) acc then
      Error (Decode (Printf.sprintf "duplicate section %S" e.sec_tag))
    else Ok (e :: acc)
  in
  if total < String.length magic || fetch ~pos:0 ~len:(String.length magic) <> magic then
    Error Bad_magic
  else if total < prelude then Error (Truncated "version field")
  else
    let version = u32_le (fetch ~pos:(String.length magic) ~len:4) 0 in
    if version = format_version then
      let rec walk pos acc =
        if pos = total then Ok (version, List.rev acc)
        else if total - pos < 12 then Error (Truncated "section header")
        else
          let h = fetch ~pos ~len:12 in
          let sec_tag = String.sub h 0 4 in
          let sec_size = u32_le h 4 in
          if sec_size > total - pos - 12 then
            Error (Truncated (Printf.sprintf "section %S" sec_tag))
          else
            let sec_crc = Int32.of_int (u32_le h 8) in
            let* acc = add acc { sec_tag; sec_offset = pos + 12; sec_size; sec_crc } in
            walk (pos + 12 + sec_size) acc
      in
      walk prelude []
    else if version = format_version_v2 then
      if total < prelude + 4 then Error (Truncated "directory header")
      else
        let count = u32_le (fetch ~pos:prelude ~len:4) 0 in
        let hsize = v2_header_size count in
        if total < hsize then Error (Truncated "section directory")
        else
          let dir = fetch ~pos:(prelude + 4) ~len:(count * v2_dir_entry_size) in
          let crc = fetch ~pos:(hsize - 4) ~len:4 in
          if Crc32.string dir <> Int32.of_int (u32_le crc 0) then
            Error (Checksum_mismatch "directory")
          else
            let rec entries i acc =
              if i = count then Ok (version, List.rev acc)
              else
                let p = i * v2_dir_entry_size in
                let sec_tag = String.sub dir p 4 in
                let sec_offset = Int64.to_int (String.get_int64_le dir (p + 4)) in
                let sec_size = Int64.to_int (String.get_int64_le dir (p + 12)) in
                if sec_offset < hsize || sec_size < 0 || sec_offset > total
                   || sec_size > total - sec_offset
                then Error (Truncated (Printf.sprintf "section %S" sec_tag))
                else
                  let sec_crc = Int32.of_int (u32_le dir (p + 20)) in
                  let* acc = add acc { sec_tag; sec_offset; sec_size; sec_crc } in
                  entries (i + 1) acc
            in
            entries 0 []
    else Error (Unsupported_version version)

let section ~fetch entries tag =
  match List.find_opt (fun e -> e.sec_tag = tag) entries with
  | None -> Error (Decode (Printf.sprintf "missing section %S" tag))
  | Some e ->
      let payload = fetch ~pos:e.sec_offset ~len:e.sec_size in
      if Crc32.string payload <> e.sec_crc then Error (Checksum_mismatch tag) else Ok payload

let string_fetch text ~pos ~len =
  let total = String.length text in
  if pos < 0 || len < 0 || pos > total || len > total - pos then ""
  else String.sub text pos len

let string_directory text = directory ~total:(String.length text) (string_fetch text)

(* Run a Codec-level decoder over a payload, mapping reader failures to
   the typed error and insisting the payload is fully consumed. *)
let decode_payload tag payload f =
  let r = Codec.R.of_string payload in
  match f r with
  | v ->
      if Codec.R.eof r then Ok v
      else Error (Decode (Printf.sprintf "trailing bytes in section %S" tag))
  | exception Codec.R.Error msg ->
      Error (Decode (Printf.sprintf "section %S: %s" tag msg))

let decode_section ~fetch entries tag f =
  let* payload = section ~fetch entries tag in
  decode_payload tag payload f

(* --- META / PROV sections --------------------------------------------------

   META is (kind, design, tool); v2 appends the object counts and a
   decoded-heap estimate, so metadata queries and admission-control
   budgets need neither NODE nor CHAN. *)

type v2_meta = {
  vm_kind : kind;
  vm_design : string;
  vm_nodes : int;
  vm_ports : int;
  vm_chans : int;
  vm_procs : int;
  vm_mems : int;
  vm_buses : int;
  vm_decoded_bytes : int;  (* estimated heap bytes of the decoded Types.t *)
}

let w_meta ~kind b design =
  Codec.W.byte b (match kind with Kslif -> 0 | Kdecision -> 1);
  Codec.W.str b design;
  Codec.W.str b tool_name

let r_meta r =
  let kind =
    match Codec.R.byte r with
    | 0 -> Kslif
    | 1 -> Kdecision
    | n -> raise (Codec.R.Error (Printf.sprintf "unknown container kind %d" n))
  in
  let design = Codec.R.str r in
  let _tool = Codec.R.str r in
  (kind, design)

let r_v2_meta r =
  let vm_kind, vm_design = r_meta r in
  let vm_nodes = Codec.R.uint r in
  let vm_ports = Codec.R.uint r in
  let vm_chans = Codec.R.uint r in
  let vm_procs = Codec.R.uint r in
  let vm_mems = Codec.R.uint r in
  let vm_buses = Codec.R.uint r in
  let vm_decoded_bytes = Codec.R.uint r in
  {
    vm_kind;
    vm_design;
    vm_nodes;
    vm_ports;
    vm_chans;
    vm_procs;
    vm_mems;
    vm_buses;
    vm_decoded_bytes;
  }

let v2_decode_meta payload = decode_payload "META" payload r_v2_meta

(* (kind, design) of a container of either version. *)
let decode_meta ~fetch (version, entries) =
  decode_section ~fetch entries "META" (fun r ->
      if version = format_version_v2 then
        let m = r_v2_meta r in
        (m.vm_kind, m.vm_design)
      else r_meta r)

let prov_payload p =
  let b = Codec.W.create () in
  Codec.W.str b p.pv_source_md5;
  Codec.W.option b Codec.W.str p.pv_profile;
  Codec.W.str b p.pv_tech;
  Codec.W.contents b

let r_prov r =
  let pv_source_md5 = Codec.R.str r in
  let pv_profile = Codec.R.option r Codec.R.str in
  let pv_tech = Codec.R.str r in
  { pv_source_md5; pv_profile; pv_tech }

(* PROV is optional: [None] when the container has none. *)
let optional_prov ~fetch entries =
  if List.exists (fun e -> e.sec_tag = "PROV") entries then
    Result.map Option.some (decode_section ~fetch entries "PROV" r_prov)
  else Ok None

(* --- SLIF graph sections --------------------------------------------------- *)

open Slif.Types

(* Weight lists are (technology, value) pairs; [w_tech]/[r_tech] encode
   the technology: its name in v1, an index into the TECH table in v2. *)
let w_weights w_tech b = Codec.W.list b (fun b tv -> Codec.W.pair b w_tech Codec.W.f64 tv)
let r_weights r_tech r = Codec.R.list r (fun r -> Codec.R.pair r r_tech Codec.R.f64)

let w_node w_tech b (n : node) =
  Codec.W.int b n.n_id;
  Codec.W.str b n.n_name;
  (match n.n_kind with
  | Behavior { is_process } ->
      Codec.W.byte b 0;
      Codec.W.bool b is_process
  | Variable { storage_bits; transfer_bits } ->
      Codec.W.byte b 1;
      Codec.W.int b storage_bits;
      Codec.W.int b transfer_bits);
  w_weights w_tech b n.n_ict;
  w_weights w_tech b n.n_size

let r_node r_tech r =
  let n_id = Codec.R.int r in
  let n_name = Codec.R.str r in
  let n_kind =
    match Codec.R.byte r with
    | 0 -> Behavior { is_process = Codec.R.bool r }
    | 1 ->
        let storage_bits = Codec.R.int r in
        let transfer_bits = Codec.R.int r in
        Variable { storage_bits; transfer_bits }
    | n -> raise (Codec.R.Error (Printf.sprintf "unknown node kind %d" n))
  in
  let n_ict = r_weights r_tech r in
  let n_size = r_weights r_tech r in
  { n_id; n_name; n_kind; n_ict; n_size }

let w_port b (p : port) =
  Codec.W.int b p.pt_id;
  Codec.W.str b p.pt_name;
  Codec.W.int b p.pt_bits;
  Codec.W.byte b (match p.pt_dir with Pin -> 0 | Pout -> 1 | Pinout -> 2)

let r_port r =
  let pt_id = Codec.R.int r in
  let pt_name = Codec.R.str r in
  let pt_bits = Codec.R.int r in
  let pt_dir =
    match Codec.R.byte r with
    | 0 -> Pin
    | 1 -> Pout
    | 2 -> Pinout
    | n -> raise (Codec.R.Error (Printf.sprintf "unknown port direction %d" n))
  in
  { pt_id; pt_name; pt_bits; pt_dir }

let w_chan b (c : channel) =
  Codec.W.int b c.c_id;
  Codec.W.int b c.c_src;
  (match c.c_dst with
  | Dnode n -> Codec.W.byte b 0; Codec.W.int b n
  | Dport p -> Codec.W.byte b 1; Codec.W.int b p);
  Codec.W.f64 b c.c_accfreq;
  Codec.W.f64 b c.c_accfreq_min;
  Codec.W.f64 b c.c_accfreq_max;
  Codec.W.int b c.c_bits;
  Codec.W.option b Codec.W.int c.c_tag;
  Codec.W.byte b
    (match c.c_kind with Call -> 0 | Var_access -> 1 | Port_access -> 2 | Message -> 3)

let r_chan r =
  let c_id = Codec.R.int r in
  let c_src = Codec.R.int r in
  let c_dst =
    match Codec.R.byte r with
    | 0 -> Dnode (Codec.R.int r)
    | 1 -> Dport (Codec.R.int r)
    | n -> raise (Codec.R.Error (Printf.sprintf "unknown channel destination %d" n))
  in
  let c_accfreq = Codec.R.f64 r in
  let c_accfreq_min = Codec.R.f64 r in
  let c_accfreq_max = Codec.R.f64 r in
  let c_bits = Codec.R.int r in
  let c_tag = Codec.R.option r Codec.R.int in
  let c_kind =
    match Codec.R.byte r with
    | 0 -> Call
    | 1 -> Var_access
    | 2 -> Port_access
    | 3 -> Message
    | n -> raise (Codec.R.Error (Printf.sprintf "unknown channel kind %d" n))
  in
  { c_id; c_src; c_dst; c_accfreq; c_accfreq_min; c_accfreq_max; c_bits; c_tag; c_kind }

let w_proc b (p : processor) =
  Codec.W.int b p.p_id;
  Codec.W.str b p.p_name;
  Codec.W.byte b (match p.p_kind with Standard -> 0 | Custom -> 1);
  Codec.W.str b p.p_tech;
  Codec.W.option b Codec.W.f64 p.p_size_constraint;
  Codec.W.option b Codec.W.int p.p_io_constraint

let r_proc r =
  let p_id = Codec.R.int r in
  let p_name = Codec.R.str r in
  let p_kind =
    match Codec.R.byte r with
    | 0 -> Standard
    | 1 -> Custom
    | n -> raise (Codec.R.Error (Printf.sprintf "unknown processor kind %d" n))
  in
  let p_tech = Codec.R.str r in
  let p_size_constraint = Codec.R.option r Codec.R.f64 in
  let p_io_constraint = Codec.R.option r Codec.R.int in
  { p_id; p_name; p_kind; p_tech; p_size_constraint; p_io_constraint }

let w_mem b (m : memory) =
  Codec.W.int b m.m_id;
  Codec.W.str b m.m_name;
  Codec.W.str b m.m_tech;
  Codec.W.option b Codec.W.f64 m.m_size_constraint

let r_mem r =
  let m_id = Codec.R.int r in
  let m_name = Codec.R.str r in
  let m_tech = Codec.R.str r in
  let m_size_constraint = Codec.R.option r Codec.R.f64 in
  { m_id; m_name; m_tech; m_size_constraint }

let w_bus b (bus : bus) =
  Codec.W.int b bus.b_id;
  Codec.W.str b bus.b_name;
  Codec.W.int b bus.b_bitwidth;
  Codec.W.f64 b bus.b_ts_us;
  Codec.W.f64 b bus.b_td_us;
  Codec.W.option b Codec.W.f64 bus.b_capacity_mbps;
  w_weights Codec.W.str b bus.b_ts_by_tech;
  Codec.W.list b
    (fun b ((ta, tb), v) ->
      Codec.W.str b ta;
      Codec.W.str b tb;
      Codec.W.f64 b v)
    bus.b_td_by_pair

let r_bus r =
  let b_id = Codec.R.int r in
  let b_name = Codec.R.str r in
  let b_bitwidth = Codec.R.int r in
  let b_ts_us = Codec.R.f64 r in
  let b_td_us = Codec.R.f64 r in
  let b_capacity_mbps = Codec.R.option r Codec.R.f64 in
  let b_ts_by_tech = r_weights Codec.R.str r in
  let b_td_by_pair =
    Codec.R.list r (fun r ->
        let ta = Codec.R.str r in
        let tb = Codec.R.str r in
        let v = Codec.R.f64 r in
        ((ta, tb), v))
  in
  { b_id; b_name; b_bitwidth; b_ts_us; b_td_us; b_capacity_mbps; b_ts_by_tech; b_td_by_pair }

let payload_of f x =
  let b = Codec.W.create () in
  f b x;
  Codec.W.contents b

(* Rough decoded-heap model (bytes), computed at write time so admission
   control can reject an over-budget graph from META alone.  Counts the
   records, boxes and strings [slif_of_string] allocates; it is an
   estimate, not an accounting — §15 documents the model. *)
let v2_decoded_estimate (s : t) =
  let str name = 8 * (3 + (String.length name / 8)) in
  let weights l = List.fold_left (fun acc (tn, _) -> acc + 80 + str tn) 0 l in
  let node acc (n : node) = acc + 96 + str n.n_name + weights n.n_ict + weights n.n_size in
  let port acc (p : port) = acc + 56 + str p.pt_name in
  let proc acc (p : processor) = acc + 96 + str p.p_name + str p.p_tech in
  let mem acc (m : memory) = acc + 72 + str m.m_name + str m.m_tech in
  let bus acc (b : bus) =
    acc + 120 + str b.b_name
    + weights b.b_ts_by_tech
    + List.fold_left (fun a ((ta, tb), _) -> a + 104 + str ta + str tb) 0 b.b_td_by_pair
  in
  Array.fold_left node 0 s.nodes
  + Array.fold_left port 0 s.ports
  + (Array.length s.chans * 112)
  + Array.fold_left proc 0 s.procs
  + Array.fold_left mem 0 s.mems
  + Array.fold_left bus 0 s.buses

(* v2's TECH table: every technology name the node weights use, in
   first-use order, and each name's index. *)
let v2_tech_table (s : t) =
  let ix = Hashtbl.create 16 in
  let rev = ref [] in
  let n = ref 0 in
  let intern name =
    if not (Hashtbl.mem ix name) then begin
      Hashtbl.add ix name !n;
      rev := name :: !rev;
      incr n
    end
  in
  Array.iter
    (fun (nd : node) ->
      List.iter (fun (tn, _) -> intern tn) nd.n_ict;
      List.iter (fun (tn, _) -> intern tn) nd.n_size)
    s.nodes;
  (Array.of_list (List.rev !rev), ix)

(* v2 META: v1's (kind, design, tool) followed by the object counts and
   the decoded-heap estimate. *)
let v2_meta_payload (s : t) =
  let b = Codec.W.create () in
  w_meta ~kind:Kslif b s.design_name;
  Codec.W.uint b (Array.length s.nodes);
  Codec.W.uint b (Array.length s.ports);
  Codec.W.uint b (Array.length s.chans);
  Codec.W.uint b (Array.length s.procs);
  Codec.W.uint b (Array.length s.mems);
  Codec.W.uint b (Array.length s.buses);
  Codec.W.uint b (v2_decoded_estimate s);
  Codec.W.contents b

let slif_to_string ?(version = format_version) ?(provenance = no_provenance) (s : t) =
  let graph w_tech =
    [
      ("NODE", payload_of (fun b -> Codec.W.array b (w_node w_tech)) s.nodes);
      ("PORT", payload_of (fun b -> Codec.W.array b w_port) s.ports);
      ("CHAN", payload_of (fun b -> Codec.W.array b w_chan) s.chans);
      ( "COMP",
        let b = Codec.W.create () in
        Codec.W.array b w_proc s.procs;
        Codec.W.array b w_mem s.mems;
        Codec.W.array b w_bus s.buses;
        Codec.W.contents b );
    ]
  in
  let prov = ("PROV", prov_payload provenance) in
  match version with
  | 1 ->
      container
        (("META", payload_of (w_meta ~kind:Kslif) s.design_name)
        :: prov :: graph Codec.W.str)
  | 2 ->
      (* v2 NODE references an interned TECH string table instead of
         repeating technology names per weight — the dominant per-node
         byte cost in v1, and a heap saving on decode since all nodes
         share one string per technology. *)
      let techs, ix = v2_tech_table s in
      v2_container
        (("META", v2_meta_payload s)
        :: prov
        :: ("TECH", payload_of (fun b -> Codec.W.array b Codec.W.str) techs)
        :: graph (fun b tn -> Codec.W.uint b (Hashtbl.find ix tn)))
  | v -> invalid_arg (Printf.sprintf "Store.slif_to_string: unknown format version %d" v)

let decode_slif ~fetch (version, entries) =
  let* kind, design_name = decode_meta ~fetch (version, entries) in
  match kind with
  | Kdecision -> Error (Decode "container holds a decision, not a SLIF")
  | Kslif ->
      let* prov = optional_prov ~fetch entries in
      let* r_tech =
        if version = format_version then Ok Codec.R.str
        else
          let* techs =
            decode_section ~fetch entries "TECH" (fun r -> Codec.R.array r Codec.R.str)
          in
          Ok
            (fun r ->
              let k = Codec.R.uint r in
              if k >= Array.length techs then
                raise (Codec.R.Error (Printf.sprintf "tech index %d out of table" k));
              techs.(k))
      in
      let decode tag f = decode_section ~fetch entries tag f in
      let* nodes = decode "NODE" (fun r -> Codec.R.array r (r_node r_tech)) in
      let* ports = decode "PORT" (fun r -> Codec.R.array r r_port) in
      let* chans = decode "CHAN" (fun r -> Codec.R.array r r_chan) in
      let* procs, mems, buses =
        decode "COMP" (fun r ->
            let procs = Codec.R.array r r_proc in
            let mems = Codec.R.array r r_mem in
            let buses = Codec.R.array r r_bus in
            (procs, mems, buses))
      in
      Ok
        ( { design_name; nodes; ports; chans; procs; mems; buses },
          Option.value prov ~default:no_provenance )

let slif_of_string text =
  let* table = string_directory text in
  decode_slif ~fetch:(string_fetch text) table

(* --- Decisions ------------------------------------------------------------- *)

let dest_name (s : t) = function
  | Dnode d -> (0, s.nodes.(d).n_name)
  | Dport p -> (1, s.ports.(p).pt_name)

let chan_kind_code = function Call -> 0 | Var_access -> 1 | Port_access -> 2 | Message -> 3

let decision_to_string ?note part =
  let s = Slif.Partition.slif part in
  let maps =
    Array.to_list s.nodes
    |> List.filter_map (fun (n : node) ->
           match Slif.Partition.comp_of part n.n_id with
           | None -> None
           | Some (Slif.Partition.Cproc i) -> Some (n.n_name, 0, s.procs.(i).p_name)
           | Some (Slif.Partition.Cmem i) -> Some (n.n_name, 1, s.mems.(i).m_name))
  in
  let chans =
    Array.to_list s.chans
    |> List.filter_map (fun (c : channel) ->
           match Slif.Partition.bus_of part c.c_id with
           | None -> None
           | Some bus ->
               let dkind, dname = dest_name s c.c_dst in
               Some
                 ( s.nodes.(c.c_src).n_name,
                   dkind,
                   dname,
                   chan_kind_code c.c_kind,
                   s.buses.(bus).b_name ))
  in
  let decn =
    let b = Codec.W.create () in
    Codec.W.option b Codec.W.str note;
    Codec.W.list b
      (fun b (node, kind, comp) ->
        Codec.W.str b node;
        Codec.W.byte b kind;
        Codec.W.str b comp)
      maps;
    Codec.W.list b
      (fun b (src, dkind, dname, ckind, bus) ->
        Codec.W.str b src;
        Codec.W.byte b dkind;
        Codec.W.str b dname;
        Codec.W.byte b ckind;
        Codec.W.str b bus)
      chans;
    Codec.W.contents b
  in
  container [ ("META", payload_of (w_meta ~kind:Kdecision) s.design_name); ("DECN", decn) ]

let decision_of_string (s : t) text =
  let fetch = string_fetch text in
  let* table = string_directory text in
  let* kind, design_name = decode_meta ~fetch table in
  match kind with
  | Kslif -> Error (Decode "container holds a SLIF, not a decision")
  | Kdecision ->
      if design_name <> s.design_name then
        Error
          (Decode
             (Printf.sprintf "decision recorded for design %S, not %S" design_name
                s.design_name))
      else
        let* note, maps, chans =
          decode_section ~fetch (snd table) "DECN" (fun r ->
              let note = Codec.R.option r Codec.R.str in
              let maps =
                Codec.R.list r (fun r ->
                    let node = Codec.R.str r in
                    let kind = Codec.R.byte r in
                    let comp = Codec.R.str r in
                    (node, kind, comp))
              in
              let chans =
                Codec.R.list r (fun r ->
                    let src = Codec.R.str r in
                    let dkind = Codec.R.byte r in
                    let dname = Codec.R.str r in
                    let ckind = Codec.R.byte r in
                    let bus = Codec.R.str r in
                    (src, dkind, dname, ckind, bus))
              in
              (note, maps, chans))
        in
        let part = Slif.Partition.create s in
        let find_index what arr name_of name =
          let found = ref None in
          Array.iteri (fun i x -> if name_of x = name then found := Some i) arr;
          match !found with
          | Some i -> Ok i
          | None -> Error (Decode (Printf.sprintf "no %s named %S in design" what name))
        in
        let rec apply_maps = function
          | [] -> Ok ()
          | (node_name, kind, comp_name) :: rest -> (
              match Slif.Types.node_by_name s node_name with
              | None -> Error (Decode (Printf.sprintf "no node named %S in design" node_name))
              | Some node ->
                  let* comp =
                    match kind with
                    | 0 ->
                        let* i =
                          find_index "processor" s.procs (fun p -> p.p_name) comp_name
                        in
                        Ok (Slif.Partition.Cproc i)
                    | 1 ->
                        let* i = find_index "memory" s.mems (fun m -> m.m_name) comp_name in
                        Ok (Slif.Partition.Cmem i)
                    | k -> Error (Decode (Printf.sprintf "bad component kind %d" k))
                  in
                  Slif.Partition.assign_node part ~node:node.n_id comp;
                  apply_maps rest)
        in
        let find_chan src dkind dname ckind =
          let matches (c : channel) =
            s.nodes.(c.c_src).n_name = src
            && chan_kind_code c.c_kind = ckind
            && dest_name s c.c_dst = (dkind, dname)
          in
          let found = ref None in
          Array.iter (fun c -> if matches c then found := Some c.c_id) s.chans;
          match !found with
          | Some id -> Ok id
          | None ->
              Error (Decode (Printf.sprintf "no channel %s -> %s in design" src dname))
        in
        let rec apply_chans = function
          | [] -> Ok ()
          | (src, dkind, dname, ckind, bus_name) :: rest ->
              let* chan = find_chan src dkind dname ckind in
              let* bus = find_index "bus" s.buses (fun b -> b.b_name) bus_name in
              Slif.Partition.assign_chan part ~chan ~bus;
              apply_chans rest
        in
        let* () = apply_maps maps in
        let* () = apply_chans chans in
        Ok (part, note)

(* --- Files ----------------------------------------------------------------- *)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Ok text
  | exception Sys_error msg -> Error (Io msg)

(* Run [f]; a [Unix_error] becomes an [Io] error naming the file, the
   failed call and the errno. *)
let unix_io file f =
  try f ()
  with Unix.Unix_error (err, call, _) ->
    let errno =
      match err with
      | Unix.ENOSPC -> " (ENOSPC)"
      | Unix.EIO -> " (EIO)"
      | Unix.EFBIG -> " (EFBIG)"
      | Unix.EROFS -> " (EROFS)"
      | Unix.EACCES -> " (EACCES)"
      | Unix.EEXIST -> " (EEXIST)"
      | Unix.ENOENT -> " (ENOENT)"
      | Unix.EUNKNOWNERR n -> Printf.sprintf " (errno %d)" n
      | _ -> ""
    in
    raise
      (Store_error
         (Io (Printf.sprintf "%s: %s: %s%s" file call (Unix.error_message err) errno)))

let write_fd ~file fd text =
  let b = Bytes.unsafe_of_string text in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  unix_io file (fun () ->
      go 0;
      Unix.fsync fd)

(* One temp name per writer: two domains of one process saving the same
   key never share a file. *)
let tmp_seq = Atomic.make 0

let write_file path text =
  (* Write a private temp file, flush it to the device, then rename it
     over [path] and flush the directory entry, so a reader never sees a
     torn file and a failed write never replaces a good one. *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let fd =
    unix_io tmp (fun () ->
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ] 0o644)
  in
  match
    (match write_fd ~file:tmp fd text with
    | () -> unix_io tmp (fun () -> Unix.close fd)
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e);
    unix_io path (fun () -> Unix.rename tmp path)
  with
  | () ->
      let dir = Filename.dirname path in
      unix_io dir (fun () ->
          let dfd = Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
          Fun.protect ~finally:(fun () -> Unix.close dfd) (fun () -> Unix.fsync dfd))
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let save_slif ~path ?version ?provenance s =
  write_file path (slif_to_string ?version ?provenance s)

let load_slif ~path =
  let* text = read_file path in
  slif_of_string text

let save_decision ~path ?note part = write_file path (decision_to_string ?note part)

(* --- Inspection ------------------------------------------------------------ *)

type info = {
  si_version : int;
  si_kind : kind;
  si_design : string;
  si_sections : section_info list;
  si_provenance : provenance option;
}

let inspect text =
  let fetch = string_fetch text in
  let* ((si_version, entries) as table) = string_directory text in
  (* v1 has no directory checksum, so its integrity rests on every
     payload CRC; v2's directory CRC covers the table, and only META and
     PROV are read. *)
  let* () =
    if si_version <> format_version then Ok ()
    else
      List.fold_left
        (fun acc e ->
          let* () = acc in
          Result.map ignore (section ~fetch entries e.sec_tag))
        (Ok ()) entries
  in
  let* si_kind, si_design = decode_meta ~fetch table in
  let* si_provenance = optional_prov ~fetch entries in
  Ok { si_version; si_kind; si_design; si_sections = entries; si_provenance }
