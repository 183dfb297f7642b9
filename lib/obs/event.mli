(** Structured JSONL event log.

    One JSON object per line: [ts_us] (monotonic clock), [level],
    [event], the recording domain, the ambient trace id when one is set
    ({!Flight.with_trace}), then caller fields.  The daemon writes its
    per-request lines and slow-request warnings here ([serve
    --event-log FILE]); the sink is process-global.

    Independent of the registry's master switch: with no sink installed
    every {!emit} is one atomic load, and installing a sink does not
    require enabling span/counter recording.

    Volume knobs: {!set_level} drops lines below a severity;
    {!set_sample} keeps one in N of the Debug/Info lines that remain
    (counter-based, deterministic — Warn/Error always land). *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

val level_of_string : string -> level option

val open_log : string -> unit
(** Truncate-open [path] as the sink (closing any previous one) and
    reset the {!emitted}/{!sampled_out} accounting.  Raises [Sys_error]
    when it cannot be created. *)

val set_channel : out_channel -> unit
(** Use an existing channel as the sink; {!close_log} will flush but not
    close it. *)

val close_log : unit -> unit
(** Flush and detach the sink (closing it only if {!open_log} opened
    it).  Subsequent emits are no-ops. *)

val set_level : level -> unit
(** Minimum severity that reaches the sink.  Default [Info]. *)

val set_sample : int -> unit
(** Keep one in [n] Debug/Info lines.  Default 1 (keep all).  Raises
    [Invalid_argument] when [n < 1]. *)

val emit : ?level:level -> ?fields:(string * Json.t) list -> string -> unit
(** Write one event line.  No-op without a sink; never raises on a
    broken sink (the daemon must not die because its log pipe did). *)

val emitted : unit -> int
(** Lines written since the sink was opened. *)

val sampled_out : unit -> int
(** Debug/Info lines dropped by the sampling knob. *)
