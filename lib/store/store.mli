(** The persistent SLIF container (DESIGN.md §11).

    A store file is the durable form of the paper's one-time
    preprocessing step: the fully annotated access graph — nodes with
    their per-technology [ict]/[size] weight lists, channels with
    [accfreq]/[bits]/concurrency tags, the component and bus tables —
    serialized so a later process evaluates design metrics without
    re-parsing or re-annotating anything.  The same container also
    carries recorded partition decisions ([slif partition --save]).

    Layout (v1): an 8-byte magic, a 4-byte little-endian format version,
    then a sequence of sections, each [4-byte tag | 4-byte LE payload
    length | 4-byte LE CRC-32 of the payload | payload].  Payloads use
    {!Codec}.

    Layout (v2): the same magic/version prelude, then a CRC-guarded
    section {e directory} — [u32 count], [count] entries of [tag(4) |
    u64 payload offset | u64 payload length | u32 payload CRC-32], a
    [u32] CRC of the directory bytes — followed by the payloads.  v2 META
    is v1 META followed by object counts and a decoded-heap estimate, and
    v2 NODE weights reference an interned TECH string table instead of
    repeating technology names per node.

    Reading is one path for both versions: {!directory} reads the
    prelude and the version's framing into one section table, and
    {!section} fetches a payload and checks its CRC-32 — on fetch, so a
    reader (a loaded string, or {!Lazy_store}'s reads of the file) pays
    only for the sections it decodes.  Every full decode fetches every
    section it uses, so every decoded byte is under a checked CRC.

    Decoding is total: any byte sequence either decodes or yields a typed
    {!error} — never an exception escaping this module's [_of_string]
    functions, never a crash. *)

type error =
  | Io of string  (** file could not be read/written (carries the OS message) *)
  | Bad_magic  (** the file does not start with ["SLIFSTOR"] *)
  | Unsupported_version of int
      (** a version word this reader does not decode (newer, or not a
          format version at all) *)
  | Truncated of string  (** input ended inside the named structure *)
  | Checksum_mismatch of string  (** the named section's CRC-32 does not match *)
  | Decode of string  (** structurally invalid payload *)

val error_message : error -> string
(** One-line human-readable rendering (what the CLI prints). *)

exception Store_error of error
(** Raised only by the [save_*] functions (on I/O failure); the read
    path returns [result]s. *)

val format_version : int
(** The default {e write} format (1 — the content-addressed cache and the
    golden corpus are pinned to its bytes); readers accept versions 1
    and 2 and reject newer ones with {!Unsupported_version} rather than
    misdecode. *)

val format_version_v2 : int
(** The offset-indexed, lazily decodable format (2). *)

(** Where an annotated SLIF came from — enough to decide whether a cached
    store file still matches its inputs. *)
type provenance = {
  pv_source_md5 : string;  (** MD5 hex digest of the specification text; [""] unknown *)
  pv_profile : string option;  (** the branch-probability file text, verbatim *)
  pv_tech : string;  (** technology-catalog fingerprint ({!Cache.tech_fingerprint}) *)
}

(** {2 Annotated SLIF bundles} *)

val slif_to_string : ?version:int -> ?provenance:provenance -> Slif.Types.t -> string
(** [version] is {!format_version} (1) by default or {!format_version_v2};
    anything else raises [Invalid_argument]. *)

val slif_of_string : string -> (Slif.Types.t * provenance, error) result
(** Exact inverse of {!slif_to_string} for either format version (the
    container's version field decides): every float comes back with the
    identical bit pattern, so estimates computed from the loaded SLIF
    equal the originals to the bit. *)

val save_slif :
  path:string -> ?version:int -> ?provenance:provenance -> Slif.Types.t -> unit
(** Write-then-rename, so a concurrent reader never sees a half-written
    file: the bytes go to a temp file private to this writer (pid,
    domain and a counter; opened [O_EXCL]) with every write checked,
    which is [fsync]ed, closed and renamed over [path], and then the
    directory is [fsync]ed.  A failure up to the rename removes the temp
    file and leaves [path] as it was; any failure raises
    [Store_error (Io _)] naming the file, the call and the errno. *)

val load_slif : path:string -> (Slif.Types.t * provenance, error) result

(** {2 Recorded partition decisions} *)

val decision_of_string :
  Slif.Types.t -> string -> (Slif.Partition.t * string option, error) result
(** Replays the recorded assignments onto a partition of the given SLIF;
    the note travels back too.  Unknown names, a design-name mismatch or
    a SLIF-kind container yield [Decode]. *)

val save_decision : path:string -> ?note:string -> Slif.Partition.t -> unit
(** Assignments are recorded by object {e name} (like the legacy text
    format), so a decision survives node renumbering as long as names are
    stable. *)

(** {2 Inspection (the [slif store info] subcommand)} *)

type kind = Kslif | Kdecision

(** One entry of a container's section table. *)
type section_info = {
  sec_tag : string;
  sec_offset : int;  (** byte offset of the payload within the container *)
  sec_size : int;  (** payload bytes *)
  sec_crc : int32;  (** payload CRC-32, as recorded in the container *)
}


type info = {
  si_version : int;
  si_kind : kind;
  si_design : string;
  si_sections : section_info list;  (** file order *)
  si_provenance : provenance option;
}

val inspect : string -> (info, error) result
(** Reads the section table, validates the container's integrity
    metadata (every v1 section checksum, as v1 has no directory
    checksum; the v2 directory checksum), and decodes META and PROV —
    without rebuilding the graph. *)

val read_file : string -> (string, error) result
(** Slurp a file, mapping I/O failures to [Io]. *)

val write_fd : file:string -> Unix.file_descr -> string -> unit
(** The store writer's inner step: every byte of the string to the
    descriptor (short writes and [EINTR] retried), then [fsync].  Raises
    [Store_error (Io _)] naming [file], the call and the errno.  Exposed
    so a test can hand it a descriptor that fails. *)

(** {2 The section table (shared with {!Lazy_store})} *)

val directory :
  total:int -> (pos:int -> len:int -> string) -> (int * section_info list, error) result
(** [directory ~total fetch] reads a container's [(version, sections)]
    through a byte-range fetch callback ([String.sub] over a loaded
    container, or {!Lazy_store}'s [read(2)] of the range) of a
    container [total] bytes long.  Checks the magic ([Bad_magic]) and
    the version ([Unsupported_version] unless 1 or 2), then walks the v1
    section headers or CRC-verifies the v2 directory.  Every entry is
    bounds-checked against [total]; duplicate tags are rejected.  No
    payload CRC is checked here. *)

val section :
  fetch:(pos:int -> len:int -> string) -> section_info list -> string -> (string, error) result
(** Fetch the named section's payload and verify its CRC-32. *)

val decode_slif :
  fetch:(pos:int -> len:int -> string) ->
  int * section_info list ->
  (Slif.Types.t * provenance, error) result
(** Full SLIF decode out of a {!directory} result, for either version
    ({!slif_of_string} and {!Lazy_store.slif} share it). *)

type v2_meta = {
  vm_kind : kind;
  vm_design : string;
  vm_nodes : int;
  vm_ports : int;
  vm_chans : int;
  vm_procs : int;
  vm_mems : int;
  vm_buses : int;
  vm_decoded_bytes : int;
      (** write-time estimate of the decoded [Types.t]'s heap bytes — the
          number admission control compares against [--max-graph-mb] *)
}

val v2_decode_meta : string -> (v2_meta, error) result
(** Decode a v2 META payload. *)
