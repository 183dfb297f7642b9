(** System-component allocation (the first system-design task).

    An allocation instantiates processors, memories and buses — each
    referencing a technology from the {!Tech.Parts} catalog — onto which a
    partition then maps the functional objects.  The stock allocations
    below cover the architectures the paper's experiments discuss
    (notably the processor+ASIC architecture of Figure 4). *)

type t = {
  alloc_name : string;
  procs : Slif.Types.processor list;
  mems : Slif.Types.memory list;
  buses : Slif.Types.bus list;
}

val single_cpu : ?size_cap:float -> unit -> t
(** One standard 32-bit processor and one 16-bit bus. *)

val proc_asic : ?cpu_cap:float -> ?asic_cap:float -> ?asic_pins:int -> unit -> t
(** The paper's evaluation architecture: one standard processor, one
    gate-array ASIC, one 16-bit bus. *)

val proc_asic_mem : unit -> t
(** Processor + ASIC + standalone memory, two buses (16- and 8-bit). *)

val catalog : t list
(** All stock allocations, for design-space exploration: the ones above,
    plus a control processor next to a DSP sharing a 16-bit bus, and two
    custom components (gate array + FPGA) on a 32-bit bus.  Catalog buses
    carry their peak bitrate as a capacity, for capacity-aware
    estimates. *)

val apply : Slif.Types.t -> t -> Slif.Types.t
(** Install the allocation's components into the SLIF (the P, M, I sets of
    the sextuple). *)
