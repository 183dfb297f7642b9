type identity = { id_dev : int; id_ino : int; id_size : int; id_mtime : float }

type t = {
  path : string;
  size : int;
  entries : Store.section_info list;
  meta : Store.v2_meta;
  ident : identity;
  lock : Mutex.t;
  (* The decoded graph is held weakly: the caller (the daemon's LRU) owns
     the only strong reference, so evicting it actually releases the
     heap — a handle never pins a decode.  Decode *errors* are memoized
     strongly; they are small and a corrupt file stays corrupt. *)
  memo : (Slif.Types.t * Store.provenance) Weak.t;
  mutable memo_err : Store.error option;
}

let ( let* ) = Result.bind
let shrank = Store.Truncated "store file shrank since open"

exception Short_read (* the file shrank between the [fstat] and a read *)

(* Read [len] bytes at [pos] into one fresh buffer.  Subtraction-form
   bounds check: [pos + len] can wrap past max_int on a crafted directory
   entry, so never sum untrusted offsets. *)
let read_range fd size ~pos ~len =
  if pos < 0 || len < 0 || pos > size || len > size - pos then ""
  else begin
    let buf = Bytes.create len in
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    let rec fill off =
      if off < len then
        match Unix.read fd buf off (len - off) with
        | 0 -> raise Short_read
        | n -> fill (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
    in
    fill 0;
    Bytes.unsafe_to_string buf
  end

(* One operation on the file: open [path], vet the fresh [fstat] with
   [check], run [f] over a fetch on the descriptor, close it — no
   descriptor outlives the call.  The outer [Error] says the file could
   not be read as opened (unlinked, replaced, shrunk, an I/O error), which
   a later call may not repeat; the inner result is [f]'s verdict on the
   bytes, where a corrupt directory driving [String.sub] out of bounds
   is a typed [Decode] error, not an exception. *)
let with_file path ~check f =
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let st = Unix.fstat fd in
        let* () = check st in
        match f st (read_range fd st.Unix.st_size) with
        | r -> Ok r
        | exception Invalid_argument msg -> Ok (Error (Store.Decode msg)))
  with
  | r -> r
  | exception Short_read -> Error shrank
  | exception Unix.Unix_error (e, _, _) -> Error (Store.Io (Unix.error_message e))

let identity_of_stat (st : Unix.stats) =
  { id_dev = st.st_dev; id_ino = st.st_ino; id_size = st.st_size; id_mtime = st.st_mtime }

let open_file path =
  Result.join
  @@ with_file path ~check:(fun _ -> Ok ()) (fun st fetch ->
         if st.st_size = 0 then Error Store.Bad_magic
         else
           let* version, entries = Store.directory ~total:st.st_size fetch in
           (* v1 cannot be decoded piecemeal; callers fall back to an eager load. *)
           let* () =
             if version = Store.format_version_v2 then Ok ()
             else Error (Store.Unsupported_version version)
           in
           let* meta = Result.bind (Store.section ~fetch entries "META") Store.v2_decode_meta in
           Ok
             {
               path;
               size = st.st_size;
               entries;
               meta;
               ident = identity_of_stat st;
               lock = Mutex.create ();
               memo = Weak.create 1;
               memo_err = None;
             })

(* Reopen the handle's own file: the path must still name the inode
   opened (a [save_slif] renames a fresh one over it), at no less than
   its size then. *)
let with_own_file t f =
  let check (st : Unix.stats) =
    if st.st_dev <> t.ident.id_dev || st.st_ino <> t.ident.id_ino then
      Error (Store.Io "store path names a different file than the one opened")
    else if st.st_size < t.size then Error shrank
    else Ok ()
  in
  with_file t.path ~check (fun _ fetch -> f fetch)

let file_size t = t.size
let meta t = t.meta
let design t = t.meta.Store.vm_design
let decoded_bytes_estimate t = t.meta.Store.vm_decoded_bytes

let file_identity path =
  match Unix.stat path with
  | st -> Some (identity_of_stat st)
  | exception Unix.Unix_error _ -> None

(* [save_slif] replaces a store by renaming a fresh temporary over it, so
   a regenerated file is a different inode; size/mtime catch in-place
   rewrites.  An unlinked or unstattable path counts as changed — callers
   reopen and surface the error. *)
let changed path ident = file_identity path <> Some ident

let stale t = changed t.path t.ident

let provenance t =
  Result.join
  @@ with_own_file t (fun fetch ->
         Result.bind (Store.section ~fetch t.entries "PROV") Store.decode_prov)

let decoded t =
  Mutex.lock t.lock;
  let d = Weak.check t.memo 0 || t.memo_err <> None in
  Mutex.unlock t.lock;
  d

let slif t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match (t.memo_err, Weak.get t.memo 0) with
      | Some e, _ -> Error e
      | None, Some v -> Ok v
      | None, None -> (
          match
            with_own_file t (fun fetch ->
                Store.decode_slif ~fetch (Store.format_version_v2, t.entries))
          with
          | Error _ as r -> r
          | Ok (Ok v as r) ->
              Slif_obs.Counter.incr "store.lazy.full_decode";
              Weak.set t.memo 0 (Some v);
              r
          | Ok (Error e as r) ->
              t.memo_err <- Some e;
              r))
