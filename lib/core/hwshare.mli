(** Shared-hardware size estimation (the paper's reference [1] refinement).

    Section 2.4.3 concedes that summing per-behavior gate weights
    "may be inaccurate for datapath-intensive behaviors on a custom
    processor, since such behaviors will likely share much hardware",
    and defers the solution to reference [1].  This module is that
    solution, kept preprocessed in SLIF style:

    - {!demands} runs once, next to {!Annotate}: for each behavior and
      each custom technology it records the functional units the
      pseudo-synthesizer would allocate;
    - {!size} answers per-partition queries by lookups: behaviors mapped
      to one custom component execute at different times, so the
      component needs only the {e maximum} unit count per operation class
      across its members — not the sum — while registers, steering and
      control remain per-behavior.

    The naive eq. 4 estimate is an upper bound: [size est d comp <=
    Estimate.size est comp], with equality for single-behavior components
    and components whose members use disjoint unit classes. *)

type t
(** Preprocessed per-behavior functional-unit allocations. *)

val demands :
  ?profile:Flow.Profile.t ->
  techs:Tech.Parts.technology list ->
  Vhdl.Sem.t ->
  t
(** One pseudo-synthesis census per behavior per custom technology, as in
    {!Annotate.run} (the two are meant to be computed together). *)

val size : Estimate.t -> t -> Partition.comp -> float
(** Equations 4-5 with unit sharing on custom processors.  For standard
    processors and memories this equals [Estimate.size] (bytes and words
    do not share).  Raises like [Estimate.size] on missing weights. *)
