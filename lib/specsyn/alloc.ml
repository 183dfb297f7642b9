type t = {
  alloc_name : string;
  procs : Slif.Types.processor list;
  mems : Slif.Types.memory list;
  buses : Slif.Types.bus list;
}

let bus_of_kind ~id (k : Tech.Parts.bus_kind) =
  {
    Slif.Types.b_id = id;
    b_name = k.bk_name;
    b_bitwidth = k.bk_bitwidth;
    b_ts_us = k.bk_ts_us;
    b_td_us = k.bk_td_us;
    b_capacity_mbps = Some k.bk_capacity_mbps;
    b_ts_by_tech = [];
    b_td_by_pair = [];
  }

let proc ~id ~name ~kind ~tech ?size_cap ?pins () =
  {
    Slif.Types.p_id = id;
    p_name = name;
    p_kind = kind;
    p_tech = tech;
    p_size_constraint = size_cap;
    p_io_constraint = pins;
  }

let single_cpu ?size_cap () =
  {
    alloc_name = "single-cpu";
    procs = [ proc ~id:0 ~name:"cpu" ~kind:Slif.Types.Standard ~tech:"cpu32" ?size_cap () ];
    mems = [];
    buses = [ bus_of_kind ~id:0 Tech.Parts.bus16 ];
  }

let proc_asic ?cpu_cap ?asic_cap ?asic_pins () =
  {
    alloc_name = "proc-asic";
    procs =
      [
        proc ~id:0 ~name:"cpu" ~kind:Slif.Types.Standard ~tech:"cpu32" ?size_cap:cpu_cap ();
        proc ~id:1 ~name:"asic" ~kind:Slif.Types.Custom ~tech:"asic_gal" ?size_cap:asic_cap
          ?pins:asic_pins ();
      ];
    mems = [];
    buses = [ bus_of_kind ~id:0 Tech.Parts.bus16 ];
  }

let proc_asic_mem () =
  {
    alloc_name = "proc-asic-mem";
    procs =
      [
        proc ~id:0 ~name:"cpu" ~kind:Slif.Types.Standard ~tech:"cpu32" ();
        proc ~id:1 ~name:"asic" ~kind:Slif.Types.Custom ~tech:"asic_gal" ();
      ];
    mems =
      [ { Slif.Types.m_id = 0; m_name = "ram"; m_tech = "sram16"; m_size_constraint = None } ];
    buses = [ bus_of_kind ~id:0 Tech.Parts.bus16; bus_of_kind ~id:1 Tech.Parts.bus8 ];
  }

let cpu_dsp () =
  {
    alloc_name = "cpu-dsp";
    procs =
      [
        proc ~id:0 ~name:"cpu" ~kind:Slif.Types.Standard ~tech:"cpu32" ();
        proc ~id:1 ~name:"dsp" ~kind:Slif.Types.Standard ~tech:"dsp16" ();
      ];
    mems = [];
    buses = [ bus_of_kind ~id:0 Tech.Parts.bus16 ];
  }

let dual_asic () =
  {
    alloc_name = "dual-asic";
    procs =
      [
        proc ~id:0 ~name:"asic0" ~kind:Slif.Types.Custom ~tech:"asic_gal" ();
        proc ~id:1 ~name:"asic1" ~kind:Slif.Types.Custom ~tech:"fpga" ();
      ];
    mems = [];
    buses = [ bus_of_kind ~id:0 Tech.Parts.bus32 ];
  }

let catalog = [ single_cpu (); proc_asic (); proc_asic_mem (); cpu_dsp (); dual_asic () ]

let apply slif t =
  Slif.Types.with_components slif ~procs:t.procs ~mems:t.mems ~buses:t.buses
