module Smap = Map.Make (String)

(* Per behavior, per custom technology: units allocated per op class and
   their total area. *)
type alloc = { units : (Tech.Optype.t * int) list; fu_area : float }

type t = { by_behavior : alloc Smap.t Smap.t (* behavior -> tech -> alloc *) }

let allocation_of_census (asic : Tech.Asic_model.t) census =
  let units =
    List.filter_map
      (fun op ->
        let n = Tech.Asic_model.allocate asic census op in
        if n = 0 then None else Some (op, n))
      Tech.Optype.all
  in
  let fu_area =
    List.fold_left
      (fun acc (op, n) ->
        acc +. (float_of_int n *. (asic.Tech.Asic_model.fu_of op).Tech.Asic_model.area_gates))
      0.0 units
  in
  { units; fu_area }

let demands ?(profile = Flow.Profile.empty) ~techs sem =
  let design = Vhdl.Sem.design sem in
  let asics =
    List.filter_map (function Tech.Parts.Asic a -> Some a | _ -> None) techs
  in
  let by_behavior =
    List.fold_left
      (fun acc (name, _decls, body) ->
        let env = Vhdl.Sem.env_of_behavior sem name in
        let is_local n =
          match Vhdl.Sem.lookup env n with
          | Some (Vhdl.Sem.Local_var _ | Vhdl.Sem.Param _ | Vhdl.Sem.Constant _) -> true
          | Some (Vhdl.Sem.Global_var _ | Vhdl.Sem.Port _ | Vhdl.Sem.Subprogram _) -> false
          | None -> true
        in
        let census =
          Tech.Census.of_behavior ~profile ~is_local
            ~is_sub:(Vhdl.Sem.is_function_name sem) ~name body
        in
        let per_tech =
          List.fold_left
            (fun m (asic : Tech.Asic_model.t) ->
              Smap.add asic.name (allocation_of_census asic census) m)
            Smap.empty asics
        in
        Smap.add name per_tech acc)
      Smap.empty (Vhdl.Ast.behaviors design)
  in
  { by_behavior }

let lookup t ~tech name =
  Option.bind (Smap.find_opt name t.by_behavior) (Smap.find_opt tech)

let find_asic tech =
  match Tech.Parts.find tech with Some (Tech.Parts.Asic a) -> Some a | _ -> None

let size est t comp =
  let naive = Estimate.size est comp in
  let s = Graph.slif (Estimate.graph est) in
  let tech = Partition.comp_tech s comp in
  match (comp, find_asic tech) with
  | Partition.Cmem _, _ | _, None -> naive
  | Partition.Cproc _, Some asic ->
      let part = Estimate.partition est in
      let members = Partition.nodes_of_comp part comp in
      (* Behaviors time-share the datapath: the component needs the peak
         per-class unit count across members, not the sum. *)
      let shared : (Tech.Optype.t, int) Hashtbl.t = Hashtbl.create 16 in
      let summed_fu = ref 0.0 in
      List.iter
        (fun id ->
          let node = s.Types.nodes.(id) in
          if Types.is_behavior node then
            match lookup t ~tech node.n_name with
            | None -> ()
            | Some a ->
                summed_fu := !summed_fu +. a.fu_area;
                List.iter
                  (fun (op, n) ->
                    let prev = Option.value (Hashtbl.find_opt shared op) ~default:0 in
                    Hashtbl.replace shared op (max prev n))
                  a.units)
        members;
      let shared_fu =
        Hashtbl.fold
          (fun op n acc ->
            acc +. (float_of_int n *. (asic.Tech.Asic_model.fu_of op).Tech.Asic_model.area_gates))
          shared 0.0
      in
      naive -. !summed_fu +. shared_fu
