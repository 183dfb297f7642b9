type comp = Cproc of int | Cmem of int

(* Slots are unboxed: a node holds its component index (processors first,
   then memories) and a channel its bus id, with -1 for unassigned.  The
   values the accessors hand out are built by [create] and shared by every
   copy, so reading a slot never allocates. *)
type t = {
  slif : Types.t;
  node_comp : int array;
  chan_bus : int array;
  comps : comp array;  (* by component index *)
  some_comps : comp option array;  (* [Some comps.(k)] *)
  some_buses : int option array;  (* [Some b] *)
  mutable version : int;
}

let create (s : Types.t) =
  let n_procs = Array.length s.procs in
  let comps =
    Array.init (n_procs + Array.length s.mems) (fun k ->
        if k < n_procs then Cproc k else Cmem (k - n_procs))
  in
  {
    slif = s;
    node_comp = Array.make (Array.length s.nodes) (-1);
    chan_bus = Array.make (Array.length s.chans) (-1);
    comps;
    some_comps = Array.map Option.some comps;
    some_buses = Array.init (Array.length s.buses) Option.some;
    version = 0;
  }

let copy t =
  { t with node_comp = Array.copy t.node_comp; chan_bus = Array.copy t.chan_bus }

let slif t = t.slif

let version t = t.version

let bump t = t.version <- t.version + 1

let restore_version t v =
  if v < 0 || v > t.version then invalid_arg "Partition.restore_version: version from the future";
  t.version <- v

let index_of_comp t = function
  | Cproc p -> if p >= 0 && p < Array.length t.slif.Types.procs then p else -1
  | Cmem m ->
      if m >= 0 && m < Array.length t.slif.Types.mems then Array.length t.slif.Types.procs + m
      else -1

let assign_node t ~node comp =
  if node < 0 || node >= Array.length t.node_comp then
    invalid_arg "Partition.assign_node: no such node";
  let k = index_of_comp t comp in
  if k < 0 then
    invalid_arg
      (match comp with
      | Cproc _ -> "Partition.assign_node: no such processor"
      | Cmem _ -> "Partition.assign_node: no such memory");
  t.node_comp.(node) <- k;
  bump t

let check_bus t bus name =
  if bus < 0 || bus >= Array.length t.slif.Types.buses then
    invalid_arg ("Partition." ^ name ^ ": no such bus")

let assign_chan t ~chan ~bus =
  if chan < 0 || chan >= Array.length t.chan_bus then
    invalid_arg "Partition.assign_chan: no such channel";
  check_bus t bus "assign_chan";
  t.chan_bus.(chan) <- bus;
  bump t

let comp_index t node = t.node_comp.(node)

let comp_of t node =
  let k = t.node_comp.(node) in
  if k < 0 then None else t.some_comps.(k)

let comp_of_exn t node =
  let k = t.node_comp.(node) in
  if k < 0 then
    invalid_arg
      (Printf.sprintf "Partition.comp_of_exn: node %s is unassigned"
         t.slif.Types.nodes.(node).Types.n_name)
  else t.comps.(k)

let bus_of t chan =
  let b = t.chan_bus.(chan) in
  if b < 0 then None else t.some_buses.(b)

let bus_of_exn t chan =
  let b = t.chan_bus.(chan) in
  if b < 0 then invalid_arg (Printf.sprintf "Partition.bus_of_exn: channel %d is unassigned" chan)
  else b

let matching slots v =
  let acc = ref [] in
  if v >= 0 then
    for i = Array.length slots - 1 downto 0 do
      if slots.(i) = v then acc := i :: !acc
    done;
  !acc

let nodes_of_comp t comp = matching t.node_comp (index_of_comp t comp)

let same_component_nodes t src d =
  let a = t.node_comp.(src) in
  a >= 0 && a = t.node_comp.(d)

let comp_name (s : Types.t) = function
  | Cproc p -> s.procs.(p).Types.p_name
  | Cmem m -> s.mems.(m).Types.m_name

let comp_tech (s : Types.t) = function
  | Cproc p -> s.procs.(p).Types.p_tech
  | Cmem m -> s.mems.(m).Types.m_tech

let assign_all_chans t ~bus =
  if Array.length t.chan_bus > 0 then check_bus t bus "assign_all_chans";
  Array.fill t.chan_bus 0 (Array.length t.chan_bus) bus;
  bump t
