module Smap = Map.Make (String)

type kind =
  | Local_var of Ast.type_def
  | Global_var of Ast.type_def
  | Port of Ast.mode * Ast.type_def
  | Param of Ast.mode * Ast.type_def
  | Constant of Ast.type_def * Ast.expr
  | Subprogram of Ast.subprogram

type t = {
  design : Ast.design;
  types : Ast.type_def Smap.t;
  globals : kind Smap.t;          (* ports, arch vars/signals/constants, subprograms *)
  locals : kind Smap.t Smap.t;    (* behavior name -> local scope *)
}

type env = { table : t; local : kind Smap.t }

exception Unbound of string

let design t = t.design

let add_decl ~global map = function
  | Ast.Var_decl { v_name; v_type; _ } ->
      Smap.add v_name (if global then Global_var v_type else Local_var v_type) map
  | Ast.Sig_decl { s_name; s_type } -> Smap.add s_name (Global_var s_type) map
  | Ast.Const_decl { c_name; c_type; c_value } ->
      Smap.add c_name (Constant (c_type, c_value)) map
  | Ast.Type_decl _ -> map

let collect_types decls map =
  List.fold_left
    (fun m d -> match d with Ast.Type_decl (n, td) -> Smap.add n td m | _ -> m)
    map decls

let build design =
  Slif_obs.Span.with_ "vhdl.sem" @@ fun () ->
  let types =
    let all_decls =
      design.Ast.arch_decls
      @ List.concat_map (fun p -> p.Ast.proc_decls) design.Ast.processes
      @ List.concat_map (fun s -> s.Ast.sub_decls) design.Ast.subprograms
    in
    collect_types all_decls Smap.empty
  in
  let globals =
    let with_ports =
      List.fold_left
        (fun m p -> Smap.add p.Ast.port_name (Port (p.Ast.port_mode, p.Ast.port_type)) m)
        Smap.empty design.Ast.ports
    in
    let with_arch =
      List.fold_left (add_decl ~global:true) with_ports design.Ast.arch_decls
    in
    List.fold_left
      (fun m s -> Smap.add s.Ast.sub_name (Subprogram s) m)
      with_arch design.Ast.subprograms
  in
  let local_scope decls params =
    let with_params =
      List.fold_left
        (fun m p -> Smap.add p.Ast.par_name (Param (p.Ast.par_mode, p.Ast.par_type)) m)
        Smap.empty params
    in
    List.fold_left (add_decl ~global:false) with_params decls
  in
  let locals =
    let m =
      List.fold_left
        (fun m p -> Smap.add p.Ast.proc_name (local_scope p.Ast.proc_decls []) m)
        Smap.empty design.Ast.processes
    in
    List.fold_left
      (fun m s -> Smap.add s.Ast.sub_name (local_scope s.Ast.sub_decls s.Ast.sub_params) m)
      m design.Ast.subprograms
  in
  { design; types; globals; locals }

let env_of_behavior t name =
  match Smap.find_opt name t.locals with
  | Some local -> { table = t; local }
  | None -> raise (Unbound name)

let global_env t = { table = t; local = Smap.empty }

let lookup env name =
  match Smap.find_opt name env.local with
  | Some k -> Some k
  | None -> Smap.find_opt name env.table.globals

let rec resolve t = function
  | Ast.Named n -> (
      match Smap.find_opt n t.types with
      | Some td -> resolve t td
      | None -> raise (Unbound n))
  | ty -> ty

(* Default widths: integers without a range use 32 bits; a natural uses
   32; booleans and bits use 1. *)
let rec scalar_bits t ty =
  match resolve t ty with
  | Ast.Integer -> 32
  | Ast.Natural -> 32
  | Ast.Boolean | Ast.Bit -> 1
  | Ast.Bit_vector w -> w
  | Ast.Int_range (lo, hi) -> Slif_util.Bitmath.bits_for_range ~lo ~hi
  | Ast.Array_of { elem; _ } -> scalar_bits t elem
  | Ast.Named _ -> assert false

let transfer_bits t ty =
  match resolve t ty with
  | Ast.Array_of { length; elem; _ } ->
      scalar_bits t elem + Slif_util.Bitmath.address_bits ~length
  | other -> scalar_bits t other

let storage_bits t ty =
  match resolve t ty with
  | Ast.Array_of { length; elem; _ } -> length * scalar_bits t elem
  | other -> scalar_bits t other

let is_function_name t name =
  match Smap.find_opt name t.globals with Some (Subprogram _) -> true | _ -> false

let params_bits t sub =
  let ret_bits =
    match sub.Ast.sub_ret with Some ty -> transfer_bits t ty | None -> 0
  in
  List.fold_left (fun acc p -> acc + transfer_bits t p.Ast.par_type) ret_bits
    sub.Ast.sub_params

