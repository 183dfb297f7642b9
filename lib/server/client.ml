type t = { fd : Unix.file_descr; rbuf : Buffer.t }

exception Timeout

(* Non-blocking connect + select, so an unreachable daemon fails after
   [timeout_ms] instead of hanging the caller in [Unix.connect]. *)
let connect_with_deadline fd addr timeout_ms =
  let timeout_s = float_of_int timeout_ms /. 1e3 in
  Unix.set_nonblock fd;
  (match Unix.connect fd addr with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
    -> (
      match Unix.select [] [ fd ] [] timeout_s with
      | _, [], _ -> raise Timeout
      | _, _ :: _, _ -> (
          match Unix.getsockopt_error fd with
          | None -> ()
          | Some err -> raise (Unix.Unix_error (err, "connect", "")))));
  Unix.clear_nonblock fd

let connect ?timeout_ms fd addr =
  (match timeout_ms with
  | None -> Unix.connect fd addr
  | Some ms ->
      if ms < 1 then invalid_arg "Client.connect: timeout_ms must be >= 1";
      connect_with_deadline fd addr ms;
      (* From here on the kernel enforces the deadline on every read and
         write; a stalled server surfaces as EAGAIN, mapped to Timeout
         below. *)
      let timeout_s = float_of_int ms /. 1e3 in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s);
  { fd; rbuf = Buffer.create 1024 }

let connect_unix ?timeout_ms path =
  connect ?timeout_ms (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0) (Unix.ADDR_UNIX path)

let connect_tcp ?timeout_ms port =
  connect ?timeout_ms
    (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0)
    (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write_substring fd s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Timeout
  done

(* Pull the next newline-terminated line out of the buffer, reading more
   from the socket as needed. *)
let read_line t =
  let chunk = Bytes.create 65536 in
  let rec go () =
    let text = Buffer.contents t.rbuf in
    match String.index_opt text '\n' with
    | Some nl ->
        let line = String.sub text 0 nl in
        Buffer.clear t.rbuf;
        Buffer.add_substring t.rbuf text (nl + 1) (String.length text - nl - 1);
        line
    | None -> (
        match Unix.read t.fd chunk 0 (Bytes.length chunk) with
        | 0 -> raise End_of_file
        | n ->
            Buffer.add_subbytes t.rbuf chunk 0 n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            raise Timeout)
  in
  go ()

let request_raw t line =
  let line = if String.length line > 0 && line.[String.length line - 1] = '\n' then line else line ^ "\n" in
  write_all t.fd line;
  read_line t

let request t json =
  Protocol.response_of_line (request_raw t (Slif_obs.Json.to_string json))

(* Write every line before reading anything: the daemon's per-connection
   sequence numbers guarantee the k-th response line answers the k-th
   request line, so one round trip carries the whole pipeline. *)
let pipeline_raw t lines =
  let buf = Buffer.create 256 in
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      if String.length line = 0 || line.[String.length line - 1] <> '\n' then
        Buffer.add_char buf '\n')
    lines;
  write_all t.fd (Buffer.contents buf);
  List.map (fun _ -> read_line t) lines

(* The [batch] op's request object: one wire line, many items. *)
let batch_request items =
  Slif_obs.Json.Obj
    [ ("op", Slif_obs.Json.String "batch"); ("items", Slif_obs.Json.List items) ]

let batch t items =
  match request t (batch_request items) with
  | Error _ as e -> e
  | Ok json -> (
      match Slif_obs.Json.member "results" json with
      | Some (Slif_obs.Json.List results) -> Ok results
      | Some _ | None -> Error "batch response carries no \"results\" list")

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
