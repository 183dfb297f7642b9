(** A small synchronous client for the [slif serve] wire protocol.

    One request line out, one response line back.  Used by the test
    suite (differential CLI-vs-server checks), the bench A9/A10 sections
    and the bundled example client; [slif serve --probe] and
    [slif stats] also go through it.

    Pass [?timeout_ms] at connect time to bound every blocking step:
    the connect itself (non-blocking + select) and, via
    [SO_RCVTIMEO] / [SO_SNDTIMEO], each subsequent read and write.  A
    deadline miss raises {!Timeout}; without the option the client
    blocks indefinitely, as before. *)

type t

exception Timeout
(** A connect, read or write exceeded the [timeout_ms] deadline. *)

val connect_unix : ?timeout_ms:int -> string -> t
(** Connect to a Unix-domain socket path.  Raises [Unix.Unix_error], or
    {!Timeout} when [timeout_ms] elapses first.
    [Invalid_argument] when [timeout_ms < 1]. *)

val connect_tcp : ?timeout_ms:int -> int -> t
(** Connect to loopback TCP.  Same errors as {!connect_unix}. *)

val request_raw : t -> string -> string
(** Send one line (newline appended if missing) and block for one
    response line.  Raises [End_of_file] if the server closes first,
    {!Timeout} if a [timeout_ms]-configured socket stalls. *)

val request : t -> Slif_obs.Json.t -> (Slif_obs.Json.t, string) result
(** Serialize a request object, send it, parse the response through
    {!Protocol.response_of_line}. *)

val pipeline_raw : t -> string list -> string list
(** Send every line, then read exactly as many response lines.  The
    daemon answers a connection in request order however its workers
    interleave, so response [k] matches request [k].  Same exceptions as
    {!request_raw}. *)

val batch_request : Slif_obs.Json.t list -> Slif_obs.Json.t
(** The [batch] request object wrapping [items] — one wire line, many
    operations. *)

val batch : t -> Slif_obs.Json.t list -> (Slif_obs.Json.t list, string) result
(** Send one [batch] request; [Ok] carries the per-item result objects
    in item order (inspect each item's ["ok"] field — item failures do
    not fail the batch). *)

val close : t -> unit
