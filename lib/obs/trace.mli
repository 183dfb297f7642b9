(** Chrome [trace_event] export of the {!Flight} window.

    The output is the JSON-object flavor of the trace-event format
    ({v {"traceEvents":[...]} v}) as {!Flight.to_chrome} renders it:
    spans as complete ("ph":"X") events with their args, counter
    samples as ("ph":"C") tracks, timestamps in microseconds from the
    window's oldest record.  It loads directly in [chrome://tracing] and
    {{:https://ui.perfetto.dev} Perfetto}.  Call {!Registry.reset}
    before a run to export just that run. *)

val write_file : string -> unit
