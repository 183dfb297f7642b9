type technology =
  | Proc of Proc_model.t
  | Asic of Asic_model.t
  | Mem of Mem_model.t

let technology_name = function
  | Proc p -> p.Proc_model.name
  | Asic a -> a.Asic_model.name
  | Mem m -> m.Mem_model.name

type bus_kind = {
  bk_name : string;
  bk_bitwidth : int;
  bk_ts_us : float;
  bk_td_us : float;
  bk_capacity_mbps : float;
}

(* --- Processors --------------------------------------------------------- *)

let mcu8 : Proc_model.t =
  {
    name = "mcu8";
    clock_mhz = 8.0;
    cycles =
      (function
      | Optype.Add -> 2.0 | Optype.Mul -> 12.0 | Optype.Div -> 40.0
      | Optype.Cmp -> 2.0 | Optype.Logic -> 1.0 | Optype.Move -> 1.0
      | Optype.Load -> 3.0 | Optype.Store -> 3.0 | Optype.Branch -> 3.0
      | Optype.Call_op -> 6.0 | Optype.Io_op -> 4.0);
    bytes =
      (function
      | Optype.Add -> 2 | Optype.Mul -> 4 | Optype.Div -> 6
      | Optype.Cmp -> 2 | Optype.Logic -> 2 | Optype.Move -> 2
      | Optype.Load -> 3 | Optype.Store -> 3 | Optype.Branch -> 3
      | Optype.Call_op -> 4 | Optype.Io_op -> 3);
    code_overhead_bytes = 16;
    word_bits = 8;
    var_access_us = 0.375;  (* 3 cycles at 8 MHz *)
  }

let cpu32 : Proc_model.t =
  {
    name = "cpu32";
    clock_mhz = 25.0;
    cycles =
      (function
      | Optype.Add -> 1.0 | Optype.Mul -> 4.0 | Optype.Div -> 18.0
      | Optype.Cmp -> 1.0 | Optype.Logic -> 1.0 | Optype.Move -> 1.0
      | Optype.Load -> 2.0 | Optype.Store -> 2.0 | Optype.Branch -> 2.0
      | Optype.Call_op -> 4.0 | Optype.Io_op -> 3.0);
    bytes =
      (function
      | Optype.Add -> 4 | Optype.Mul -> 4 | Optype.Div -> 4
      | Optype.Cmp -> 4 | Optype.Logic -> 4 | Optype.Move -> 4
      | Optype.Load -> 4 | Optype.Store -> 4 | Optype.Branch -> 4
      | Optype.Call_op -> 8 | Optype.Io_op -> 4);
    code_overhead_bytes = 32;
    word_bits = 32;
    var_access_us = 0.08;  (* 2 cycles at 25 MHz *)
  }

(* A 16-bit DSP: single-cycle multiply-accumulate, weak control flow. *)
let dsp16 : Proc_model.t =
  {
    name = "dsp16";
    clock_mhz = 40.0;
    cycles =
      (function
      | Optype.Add -> 1.0 | Optype.Mul -> 1.0 | Optype.Div -> 40.0
      | Optype.Cmp -> 1.0 | Optype.Logic -> 1.0 | Optype.Move -> 1.0
      | Optype.Load -> 1.0 | Optype.Store -> 1.0 | Optype.Branch -> 4.0
      | Optype.Call_op -> 6.0 | Optype.Io_op -> 3.0);
    bytes =
      (function
      | Optype.Add -> 2 | Optype.Mul -> 2 | Optype.Div -> 6
      | Optype.Cmp -> 2 | Optype.Logic -> 2 | Optype.Move -> 2
      | Optype.Load -> 2 | Optype.Store -> 2 | Optype.Branch -> 4
      | Optype.Call_op -> 4 | Optype.Io_op -> 2);
    code_overhead_bytes = 24;
    word_bits = 16;
    var_access_us = 0.025;  (* 1 cycle at 40 MHz *)
  }

(* --- Custom processors --------------------------------------------------- *)

let asic_gal : Asic_model.t =
  {
    name = "asic_gal";
    clock_ns = 20.0;
    fu_of =
      (function
      | Optype.Add -> { area_gates = 180.0; cycles_per_op = 1; available = 4 }
      | Optype.Mul -> { area_gates = 1100.0; cycles_per_op = 2; available = 2 }
      | Optype.Div -> { area_gates = 2100.0; cycles_per_op = 8; available = 1 }
      | Optype.Cmp -> { area_gates = 90.0; cycles_per_op = 1; available = 4 }
      | Optype.Logic -> { area_gates = 40.0; cycles_per_op = 1; available = 8 }
      | Optype.Move -> { area_gates = 20.0; cycles_per_op = 1; available = 8 }
      | Optype.Load -> { area_gates = 60.0; cycles_per_op = 1; available = 2 }
      | Optype.Store -> { area_gates = 60.0; cycles_per_op = 1; available = 2 }
      | Optype.Branch -> { area_gates = 30.0; cycles_per_op = 1; available = 4 }
      | Optype.Call_op -> { area_gates = 50.0; cycles_per_op = 2; available = 2 }
      | Optype.Io_op -> { area_gates = 80.0; cycles_per_op = 2; available = 2 });
    reg_gates_per_bit = 8.0;
    mux_gates_per_op = 3.0;
    ctrl_gates_per_op = 5.0;
    var_access_us = 0.02;
  }

let fpga : Asic_model.t =
  {
    name = "fpga";
    clock_ns = 40.0;
    fu_of =
      (function
      | Optype.Add -> { area_gates = 260.0; cycles_per_op = 1; available = 4 }
      | Optype.Mul -> { area_gates = 1600.0; cycles_per_op = 3; available = 1 }
      | Optype.Div -> { area_gates = 3000.0; cycles_per_op = 12; available = 1 }
      | Optype.Cmp -> { area_gates = 130.0; cycles_per_op = 1; available = 4 }
      | Optype.Logic -> { area_gates = 60.0; cycles_per_op = 1; available = 8 }
      | Optype.Move -> { area_gates = 30.0; cycles_per_op = 1; available = 8 }
      | Optype.Load -> { area_gates = 90.0; cycles_per_op = 1; available = 2 }
      | Optype.Store -> { area_gates = 90.0; cycles_per_op = 1; available = 2 }
      | Optype.Branch -> { area_gates = 45.0; cycles_per_op = 1; available = 4 }
      | Optype.Call_op -> { area_gates = 75.0; cycles_per_op = 2; available = 2 }
      | Optype.Io_op -> { area_gates = 120.0; cycles_per_op = 2; available = 2 });
    reg_gates_per_bit = 12.0;
    mux_gates_per_op = 4.0;
    ctrl_gates_per_op = 7.0;
    var_access_us = 0.04;
  }

(* --- Memories ------------------------------------------------------------ *)

let sram16 : Mem_model.t = { name = "sram16"; word_bits = 16; access_us = 0.05 }
let dram32 : Mem_model.t = { name = "dram32"; word_bits = 32; access_us = 0.15 }

(* Slow serial EEPROM for configuration tables. *)
let eeprom8 : Mem_model.t = { name = "eeprom8"; word_bits = 8; access_us = 2.0 }

(* --- Buses ---------------------------------------------------------------- *)

let bus8 =
  { bk_name = "bus8"; bk_bitwidth = 8; bk_ts_us = 0.05; bk_td_us = 0.4; bk_capacity_mbps = 20.0 }

let bus16 =
  { bk_name = "bus16"; bk_bitwidth = 16; bk_ts_us = 0.04; bk_td_us = 0.25; bk_capacity_mbps = 64.0 }

let bus32 =
  { bk_name = "bus32"; bk_bitwidth = 32; bk_ts_us = 0.03; bk_td_us = 0.15; bk_capacity_mbps = 200.0 }

let all =
  [
    Proc mcu8; Proc cpu32; Proc dsp16;
    Asic asic_gal; Asic fpga;
    Mem sram16; Mem dram32; Mem eeprom8;
  ]

let find name =
  List.find_opt (fun t -> technology_name t = name) all
