(** Stock catalog of component technologies and buses.

    Every SLIF component instance references one of these technologies by
    name; the annotator computes one ict / size weight per technology for
    every functional object, which is exactly the paper's "list of
    weights, one weight for each type of system component on which that
    node could possibly be implemented". *)

type technology =
  | Proc of Proc_model.t
  | Asic of Asic_model.t
  | Mem of Mem_model.t

val technology_name : technology -> string

type bus_kind = {
  bk_name : string;
  bk_bitwidth : int;
  bk_ts_us : float;          (* transfer time within one component *)
  bk_td_us : float;          (* transfer time between components *)
  bk_capacity_mbps : float;  (* peak bitrate, for capacity-limited estimates *)
}

(* Custom processors *)
val asic_gal : Asic_model.t   (* gate-array ASIC *)

(* Buses *)
val bus8 : bus_kind
val bus16 : bus_kind
val bus32 : bus_kind

val all : technology list
(** Processors [mcu8] (8-bit microcontroller), [cpu32] (32-bit embedded
    RISC), [dsp16] (16-bit DSP: single-cycle MAC, weak control); custom
    [asic_gal] (gate array) and [fpga]; memories [sram16], [dram32] and
    [eeprom8] (slow serial configuration store). *)

val find : string -> technology option
