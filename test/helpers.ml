(** Shared fixtures for the test suites. *)

let fuzzy_design = lazy (Vhdl.Parser.parse Specs.Spec_fuzzy.text)

let fuzzy_sem = lazy (Vhdl.Sem.build (Lazy.force fuzzy_design))

let fuzzy_slif =
  lazy
    (let sem = Lazy.force fuzzy_sem in
     Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem))

(* A small single-process design used by focused unit tests. *)
let tiny_source =
  {|entity tiny is
  port ( a : in integer range 0 to 15; y : out integer range 0 to 15 );
end;
architecture b of tiny is
  shared variable v : integer range 0 to 15;
  shared variable w : integer range 0 to 15;
  procedure helper is
  begin
    w := v + 1;
  end helper;
begin
  main: process
  begin
    v := a;
    helper;
    helper;
    y <= w;
    wait for 10 us;
  end process;
end;
|}

let tiny_sem = lazy (Vhdl.Sem.build (Vhdl.Parser.parse tiny_source))

let tiny_slif =
  lazy
    (let sem = Lazy.force tiny_sem in
     Slif.Annotate.run ~techs:Tech.Parts.all sem (Slif.Build.build sem))

(* One processor + one ASIC + one bus, everything mapped to the processor
   except nothing; channels all on the bus. *)
let proc_asic_components (slif : Slif.Types.t) =
  Slif.Types.with_components slif
    ~procs:
      [
        {
          Slif.Types.p_id = 0;
          p_name = "cpu";
          p_kind = Slif.Types.Standard;
          p_tech = "cpu32";
          p_size_constraint = None;
          p_io_constraint = None;
        };
        {
          Slif.Types.p_id = 1;
          p_name = "asic";
          p_kind = Slif.Types.Custom;
          p_tech = "asic_gal";
          p_size_constraint = None;
          p_io_constraint = None;
        };
      ]
    ~mems:
      [ { Slif.Types.m_id = 0; m_name = "ram"; m_tech = "sram16"; m_size_constraint = None } ]
    ~buses:
      [
        {
          Slif.Types.b_id = 0;
          b_name = "sysbus";
          b_bitwidth = 16;
          b_ts_us = 0.04;
          b_td_us = 0.25;
          b_capacity_mbps = Some 64.0;
          b_ts_by_tech = [];
          b_td_by_pair = [];
        };
      ]

(* Map every node to processor 0 and every channel to bus 0. *)
let all_on_cpu slif =
  let s = proc_asic_components slif in
  let part = Slif.Partition.create s in
  Array.iteri
    (fun i _ -> Slif.Partition.assign_node part ~node:i (Slif.Partition.Cproc 0))
    s.Slif.Types.nodes;
  Slif.Partition.assign_all_chans part ~bus:0;
  (s, part)

(* Every assigned node as [(node id, component)] and every assigned
   channel as [(channel id, bus id)], ascending by id. *)
let assignments part =
  let s = Slif.Partition.slif part in
  List.filter_map
    (fun (n : Slif.Types.node) ->
      Option.map (fun c -> (n.n_id, c)) (Slif.Partition.comp_of part n.n_id))
    (Array.to_list s.Slif.Types.nodes)

let chan_assignments part =
  let s = Slif.Partition.slif part in
  List.filter_map
    (fun (c : Slif.Types.channel) ->
      Option.map (fun b -> (c.c_id, b)) (Slif.Partition.bus_of part c.c_id))
    (Array.to_list s.Slif.Types.chans)

(* Every node and channel assigned: {!Slif.Validate.check} names no
   unassigned object. *)
let is_total part =
  List.for_all
    (function
      | Slif.Validate.Unassigned_node _ | Slif.Validate.Unassigned_chan _ -> false
      | _ -> true)
    (Slif.Validate.check part)

(* --- Regression corpus ---------------------------------------------------

   [corpus/<name>.seed] stores one generator seed per line ('#' comments
   and blank lines allowed).  When a generative test fails, its seed is
   appended to the corpus file so the exact failing input is replayed —
   deterministically and first — on every later run.  [replay_corpus]
   is a no-op when the corpus file does not exist. *)

let corpus_seeds name =
  let path = Filename.concat "corpus" (name ^ ".seed") in
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let seeds = ref [] in
        (try
           while true do
             let line = String.trim (input_line ic) in
             if line <> "" && line.[0] <> '#' then
               match int_of_string_opt line with
               | Some seed -> seeds := seed :: !seeds
               | None -> failwith (Printf.sprintf "corpus %s: bad line %S" name line)
           done
         with End_of_file -> ());
        List.rev !seeds)
  end

let replay_corpus name check =
  List.iter
    (fun seed ->
      try check seed
      with e ->
        Alcotest.failf "corpus %s: stored seed %d regressed (%s)" name seed
          (Printexc.to_string e))
    (corpus_seeds name)
