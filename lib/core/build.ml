module Ast = Vhdl.Ast
module Sem = Vhdl.Sem

(* Accumulated per-channel statistics before aggregation. *)
type site = {
  s_mult : Flow.Count.mult;
  s_par : int option;
  s_seq : int;
}

type proto_chan = {
  pc_src : int;
  pc_dst : Types.dest;
  pc_bits : int;
  pc_kind : Types.chan_kind;
  mutable pc_sites : site list;
}

let port_dir_of = function
  | Ast.In -> Types.Pin
  | Ast.Out -> Types.Pout
  | Ast.Inout -> Types.Pinout

let build ?(profile = Flow.Profile.empty) ?name sem =
  Slif_obs.Span.with_ "slif.build" @@ fun () ->
  let design = Sem.design sem in
  let design_name = Option.value name ~default:design.Ast.entity_name in
  (* --- Nodes: behaviors first (processes then subprograms), then
     architecture-level variables and signals. --- *)
  let node_names = Hashtbl.create 64 in
  let nodes = ref [] in
  let n_nodes = ref 0 in
  let add_node name kind =
    let id = !n_nodes in
    incr n_nodes;
    Hashtbl.replace node_names name id;
    nodes := (name, kind) :: !nodes
  in
  List.iter
    (fun (p : Ast.process) -> add_node p.proc_name (Types.Behavior { is_process = true }))
    design.processes;
  List.iter
    (fun (s : Ast.subprogram) -> add_node s.sub_name (Types.Behavior { is_process = false }))
    design.subprograms;
  List.iter
    (fun d ->
      match d with
      | Ast.Var_decl { v_name; v_type; _ } | Ast.Sig_decl { s_name = v_name; s_type = v_type } ->
          add_node v_name
            (Types.Variable
               {
                 storage_bits = Sem.storage_bits sem v_type;
                 transfer_bits = Sem.transfer_bits sem v_type;
               })
      | Ast.Const_decl _ | Ast.Type_decl _ -> ())
    design.arch_decls;
  (* --- Ports --- *)
  let ports = ref [] in
  let n_ports = ref 0 in
  let port_ids = Hashtbl.create 16 in
  let add_port name bits dir =
    let id = !n_ports in
    incr n_ports;
    Hashtbl.replace port_ids name id;
    ports :=
      { Types.pt_id = id; pt_name = name; pt_bits = bits; pt_dir = dir } :: !ports;
    id
  in
  List.iter
    (fun (p : Ast.port) ->
      ignore
        (add_port p.port_name (Sem.transfer_bits sem p.port_type) (port_dir_of p.port_mode)))
    design.ports;
  (* --- Each behavior's access events, walked once --- *)
  let behavior_events =
    List.map
      (fun (bname, _, body) -> (bname, Flow.Count.events ~profile ~behavior:bname body))
      (Ast.behaviors design)
  in
  (* --- Message channel endpoints: collect receivers per abstract name --- *)
  let receivers = Hashtbl.create 8 in
  List.iter
    (fun (bname, events) ->
      List.iter
        (fun (e : Flow.Count.event) ->
          match e.access with
          | Flow.Count.Message_in ch ->
              let prev = Option.value (Hashtbl.find_opt receivers ch) ~default:[] in
              if not (List.mem bname prev) then Hashtbl.replace receivers ch (bname :: prev)
          | _ -> ())
        events)
    behavior_events;
  (* --- Channels --- *)
  let chans = Hashtbl.create 128 in
  let chan_order = ref [] in
  let record ~src ~dst ~bits ~kind site =
    let key = (src, dst, kind) in
    match Hashtbl.find_opt chans key with
    | Some pc -> pc.pc_sites <- site :: pc.pc_sites
    | None ->
        let pc = { pc_src = src; pc_dst = dst; pc_bits = bits; pc_kind = kind; pc_sites = [ site ] } in
        Hashtbl.replace chans key pc;
        chan_order := key :: !chan_order
  in
  let process_behavior (bname, events) =
    match Hashtbl.find_opt node_names bname with
    | None -> ()
    | Some src ->
        let env = Sem.env_of_behavior sem bname in
        List.iter
          (fun (e : Flow.Count.event) ->
            let site = { s_mult = e.mult; s_par = e.par_group; s_seq = e.seq } in
            match e.access with
            | Flow.Count.Read n | Flow.Count.Write n -> (
                match Sem.lookup env n with
                | Some (Sem.Global_var ty) -> (
                    match Hashtbl.find_opt node_names n with
                    | Some dst ->
                        record ~src ~dst:(Types.Dnode dst)
                          ~bits:(Sem.transfer_bits sem ty) ~kind:Types.Var_access site
                    | None -> ())
                | Some (Sem.Port (_, ty)) -> (
                    match Hashtbl.find_opt port_ids n with
                    | Some pid ->
                        record ~src ~dst:(Types.Dport pid)
                          ~bits:(Sem.transfer_bits sem ty) ~kind:Types.Port_access site
                    | None -> ())
                | Some (Sem.Subprogram sub) ->
                    (* A one-argument call parsed as an index. *)
                    (match Hashtbl.find_opt node_names sub.Ast.sub_name with
                    | Some dst ->
                        record ~src ~dst:(Types.Dnode dst)
                          ~bits:(Sem.params_bits sem sub) ~kind:Types.Call site
                    | None -> ())
                | Some (Sem.Local_var _ | Sem.Param _ | Sem.Constant _) | None -> ())
            | Flow.Count.Call n -> (
                match Sem.lookup env n with
                | Some (Sem.Subprogram sub) -> (
                    match Hashtbl.find_opt node_names n with
                    | Some dst ->
                        record ~src ~dst:(Types.Dnode dst)
                          ~bits:(Sem.params_bits sem sub) ~kind:Types.Call site
                    | None -> ())
                | _ -> ())
            | Flow.Count.Message_out ch -> (
                (* Messages are encoded in a 32-bit word (DESIGN.md §5). *)
                let bits = 32 in
                match Hashtbl.find_opt receivers ch with
                | Some rs ->
                    List.iter
                      (fun r ->
                        if r <> bname then
                          match Hashtbl.find_opt node_names r with
                          | Some dst ->
                              record ~src ~dst:(Types.Dnode dst) ~bits ~kind:Types.Message site
                          | None -> ())
                      rs
                | None ->
                    let pid =
                      match Hashtbl.find_opt port_ids ch with
                      | Some pid -> pid
                      | None -> add_port ch bits Types.Pout
                    in
                    record ~src ~dst:(Types.Dport pid) ~bits ~kind:Types.Message site)
            | Flow.Count.Message_in _ -> ())
          events
  in
  List.iter process_behavior behavior_events;
  (* --- Aggregate proto-channels --- *)
  let chan_list = List.rev !chan_order in
  let channels =
    List.mapi
      (fun i key ->
        let pc = Hashtbl.find chans key in
        let sites = List.rev pc.pc_sites in
        let sum f = List.fold_left (fun acc s -> acc +. f s.s_mult) 0.0 sites in
        let tag =
          (* A tag from a par block when all sites agree on one; otherwise a
             statement-level tag when all sites share a statement. *)
          match sites with
          | [] -> None
          | first :: rest -> (
              match first.s_par with
              | Some g when List.for_all (fun s -> s.s_par = Some g) rest -> Some g
              | _ ->
                  if List.for_all (fun s -> s.s_seq = first.s_seq) rest then
                    Some (1_000_000 + first.s_seq)
                  else None)
        in
        {
          Types.c_id = i;
          c_src = pc.pc_src;
          c_dst = pc.pc_dst;
          c_accfreq = sum (fun m -> m.Flow.Count.avg);
          c_accfreq_min = sum (fun m -> m.Flow.Count.mn);
          c_accfreq_max = sum (fun m -> m.Flow.Count.mx);
          c_bits = pc.pc_bits;
          c_tag = tag;
          c_kind = pc.pc_kind;
        })
      chan_list
  in
  let node_array =
    Array.of_list
      (List.rev_map
         (fun (name, kind) ->
           { Types.n_id = 0; n_name = name; n_kind = kind; n_ict = []; n_size = [] })
         !nodes)
  in
  Array.iteri (fun i n -> node_array.(i) <- { n with Types.n_id = i }) node_array;
  Slif_obs.Counter.add "build.nodes" (Array.length node_array);
  Slif_obs.Counter.add "build.channels" (List.length channels);
  {
    Types.design_name;
    nodes = node_array;
    ports = Array.of_list (List.rev !ports);
    chans = Array.of_list channels;
    procs = [||];
    mems = [||];
    buses = [||];
  }
