(** Preprocessing pass: attach per-technology ict and size weights.

    This is the paper's one-time "compile / synthesize each behavior
    beforehand" step (Sections 2.1 and 2.4): for every behavior node and
    every candidate technology, a pseudo-compilation (standard processor)
    or pseudo-synthesis (custom processor) yields the internal computation
    time and size weights; variable nodes get storage sizes and access
    times per technology.  After this pass, all estimation is lookups. *)

val run :
  ?profile:Flow.Profile.t ->
  techs:Tech.Parts.technology list ->
  Vhdl.Sem.t ->
  Types.t ->
  Types.t
(** [run ~techs sem slif] returns the SLIF with [n_ict] and [n_size]
    filled in for each node and each applicable technology (behaviors get
    no weights on memory technologies, in line with the paper's rule that
    behaviors map only to processors). *)
