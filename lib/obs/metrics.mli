(** Metrics export: counters and histograms as one summary-JSON object,
    as JSONL (one metric per line, stream-friendly), or as an aligned
    text summary for [--verbose]. *)

val to_json : unit -> Json.t
(** {v {"counters":{...},
       "histograms":{name:{count,sum,min,max,mean,p50,p90,p99}},
       "dropped_span_events":n} v}
    [dropped_span_events] counts {!Flight} records lost to rings
    wrapping.  The p50/p90/p99 fields are log-bucket estimates
    ({!Histogram.quantiles}); a bare lifetime summary without them is no
    longer emitted. *)

val write_file : string -> unit
(** Write the summary-JSON form. *)

val write_jsonl : string -> unit
(** One JSON object per line:
    {v {"type":"counter","name":...,"value":...} v} then
    {v {"type":"histogram","name":...,"count":...,...} v}. *)

val summary_string : unit -> string
(** Human-readable table of every counter and histogram (empty string
    when nothing was recorded). *)
