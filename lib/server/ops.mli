(** The one shared implementation of the query operations.

    Both front ends — the one-shot CLI subcommands and the [slif serve]
    daemon — call these functions, so a server response is byte-identical
    to the corresponding CLI stdout by construction, not by parallel
    maintenance.  All [*_output] results end with a newline, exactly as
    the CLI prints them. *)

val parse_any : string -> Vhdl.Ast.design
(** A source whose first token is the word [spec] is SpecCharts-lite and
    is lowered to the VHDL subset; anything else parses as VHDL
    directly. *)

val annotated :
  ?cache_dir:string -> ?profile_text:string -> string -> Slif.Types.t
(** Parse + build + annotate — or, with [cache_dir], the load-or-build
    step through {!Slif_store.Cache} keyed on (source, profile, tech
    catalog).  [profile_text] is branch-probability file text
    ({!Flow.Profile.of_string} syntax).  Raises
    [Slif_store.Store.Store_error] on an unusable cache directory and
    [Failure] on a malformed profile. *)

val algo_of_string : string -> (Specsyn.Explore.algo, string) result
(** The CLI's algorithm vocabulary: random, greedy, gm/group-migration,
    sa/annealing, cluster/clustering. *)

val parse_deadline : string -> (string * float, string) result
(** ["proc=us"] → [(proc, us)]. *)

val constraints_of_deadlines : (string * float) list -> Specsyn.Cost.constraints

val build_stats_output : Slif.Types.t -> string
(** The default [slif build] listing: stats line plus one row per node. *)

val estimate_output : ?bounds:bool -> Slif.Types.t -> string
(** The [slif estimate [--bounds]] report on the all-software seed
    partition of the processor+ASIC architecture. *)

val partition_output :
  algo:Specsyn.Explore.algo ->
  constraints:Specsyn.Cost.constraints ->
  Slif.Types.t ->
  string * Slif.Partition.t
(** The [slif partition] header + report, and the winning partition (the
    CLI's [--save] persists it). *)

val partition_report_for :
  constraints:Specsyn.Cost.constraints -> Slif.Types.t -> Slif.Partition.t -> string
(** Report for an externally supplied partition (the [--load] replay
    path); the partition must target the processor+ASIC application of
    this SLIF. *)

val apply_proc_asic : Slif.Types.t -> Slif.Types.t
(** The stock evaluation architecture every query runs on. *)

val explore_output :
  ?jobs:int ->
  ?chunk:int ->
  ?timings:bool ->
  constraints:Specsyn.Cost.constraints ->
  Slif.Types.t ->
  string
(** The [slif partition --explore] report.  [chunk] is the restart slice
    size forwarded to {!Specsyn.Explore.run} (default: the pool
    heuristic); the report is identical for every value.  [timings]
    defaults to false (the daemon needs schedule-independent responses;
    it equals the CLI run with [--no-timings]); the CLI passes true
    unless asked not to. *)
