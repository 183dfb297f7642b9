type move =
  | Move_node of { node : int; to_ : Slif.Partition.comp }
  | Move_chan of { chan : int; to_bus : int }
  | Move_group of move list

(* Undo journal: every mutation made while a transaction is open records
   the previous value of the cell it overwrites.  Rollback replays the
   journal newest-first, so each cell ends on its exact pre-transaction
   bit pattern no matter how often a group move touched it. *)
type undo =
  | U_node of int * Slif.Partition.comp  (* node, previous component *)
  | U_chan of int * int                  (* chan, previous bus *)
  | U_float of float array * int * float
  | U_int of int array * int * int
  | U_rate of int * int * float          (* bus, source node, previous leaf *)

type txn = {
  saved_version : int;
  mutable undos : undo list;   (* newest first *)
  mutable inval : int list;    (* nodes whose exectime memo entries were dropped *)
}

type t = {
  graph : Slif.Graph.t;
  mutable part : Slif.Partition.t;  (* mutable so [acquire] can re-point a replica *)
  est : Slif.Estimate.t;
  weights : Cost.weights;
  deadlines : (int * float) array;  (* resolved (node id, deadline us) *)
  n_procs : int;
  n_comps : int;
  (* Aggregates.  Components are indexed processors-first, then memories
     (matching Cost.evaluate's sweep order). *)
  comp_size : float array;          (* eqs. 4-5: summed size weights *)
  cut_count : int array array;      (* [comp][bus] boundary-crossing channels *)
  (* Eqs. 2-3: one pairwise-sum tree per bus with a leaf per source node,
     holding Estimate.src_bitrate_mbps — the shape
     Estimate.bus_bitrate_mbps sums in, so each root is the oracle's bus
     bitrate to the bit. *)
  bus_rate : Slif_util.Sumtree.t array;
  (* Violation terms, one cell per constrained object; totals are summed
     on demand so untouched cells never drift. *)
  size_viol : float array;          (* per component *)
  io_viol : float array;            (* per component (memories stay 0) *)
  time_viol : float array;          (* per deadline *)
  (* Move generation. *)
  proc_comps : Slif.Partition.comp array;
  all_comps : Slif.Partition.comp array;
  incident : int array array;       (* per node: channel ids, deduplicated *)
  mark : bool array;                (* scratch: node membership tests *)
  mutable txn : txn option;
  mutable scored : int;
}

let slif t = Slif.Graph.slif t.graph
let graph t = t.graph
let partition t = t.part
let estimate t = t.est
let pending t = t.txn <> None
let moves_scored t = t.scored

(* --- Per-term recomputation (each mirrors one Cost.evaluate term) --------- *)

let size_weight t node tech =
  let s = slif t in
  match Slif.Types.size_on s.Slif.Types.nodes.(node) tech with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Engine: node %s has no size weight for technology %s"
           s.Slif.Types.nodes.(node).Slif.Types.n_name tech)

let size_viol_of t k =
  let s = slif t in
  let cap =
    if k < t.n_procs then s.Slif.Types.procs.(k).Slif.Types.p_size_constraint
    else s.Slif.Types.mems.(k - t.n_procs).Slif.Types.m_size_constraint
  in
  Cost.excess t.comp_size.(k) cap

let io_pins_of t k =
  let s = slif t in
  let row = t.cut_count.(k) in
  let pins = ref 0 in
  Array.iteri
    (fun b (bus : Slif.Types.bus) -> if row.(b) > 0 then pins := !pins + bus.b_bitwidth)
    s.Slif.Types.buses;
  !pins

let io_viol_of t k =
  let s = slif t in
  if k >= t.n_procs then 0.0
  else
    match s.Slif.Types.procs.(k).Slif.Types.p_io_constraint with
    | None -> 0.0
    | Some cap ->
        Cost.excess (float_of_int (io_pins_of t k)) (Some (float_of_int cap))

let time_viol_of t i =
  let node, deadline = t.deadlines.(i) in
  Cost.excess (Slif.Estimate.exectime_us t.est node) (Some deadline)

(* --- Journaled writes ----------------------------------------------------- *)

let journal t u = match t.txn with None -> () | Some txn -> txn.undos <- u :: txn.undos

let setf t arr i v =
  journal t (U_float (arr, i, arr.(i)));
  arr.(i) <- v

let seti t arr i v =
  journal t (U_int (arr, i, arr.(i)));
  arr.(i) <- v

(* Only the leaf is journaled: rollback rewrites it through
   [Sumtree.set], which recomputes the ancestors from the restored
   leaves, so they come back bit-exact by construction. *)
let set_rate t b src v =
  let tree = t.bus_rate.(b) in
  journal t (U_rate (b, src, Slif_util.Sumtree.leaf tree src));
  Slif_util.Sumtree.set tree src v

(* --- Crossing bookkeeping ------------------------------------------------- *)

(* Add [delta] to the crossing count of every incident channel of [node]
   that currently crosses component [k]. *)
let shift_cuts_at_node t k node delta =
  let s = slif t in
  Array.iter
    (fun cid ->
      let c = s.Slif.Types.chans.(cid) in
      if Slif.Estimate.crosses t.est k c then begin
        let b = Slif.Partition.bus_of_exn t.part cid in
        seti t t.cut_count.(k) b (t.cut_count.(k).(b) + delta)
      end)
    t.incident.(node)

(* Component indices whose boundary the channel currently crosses (at most
   two: the source's and the destination's). *)
let crossed_comps t (c : Slif.Types.channel) =
  let a = Slif.Partition.comp_index t.part c.c_src in
  match c.c_dst with
  | Slif.Types.Dport _ -> [ a ]
  | Slif.Types.Dnode d ->
      let b = Slif.Partition.comp_index t.part d in
      if a = b then [] else [ a; b ]

(* --- Delta refresh after an invalidation --------------------------------- *)

(* Recompute the per-bus rate leaves of every source node in the
   invalidation set [set] (their execution times may have changed). *)
let refresh_rates t set =
  List.iter
    (fun id ->
      if not t.mark.(id) then begin
        t.mark.(id) <- true;
        Array.iteri
          (fun b tree ->
            let r = Slif.Estimate.src_bitrate_mbps t.est b id in
            if r <> Slif_util.Sumtree.leaf tree id then set_rate t b id r)
          t.bus_rate
      end)
    set;
  List.iter (fun id -> t.mark.(id) <- false) set

let refresh_time t set =
  List.iter (fun id -> t.mark.(id) <- true) set;
  Array.iteri
    (fun i (node, _) -> if t.mark.(node) then setf t t.time_viol i (time_viol_of t i))
    t.deadlines;
  List.iter (fun id -> t.mark.(id) <- false) set

let refresh_comp_viol t comps =
  List.iter
    (fun k ->
      setf t t.size_viol k (size_viol_of t k);
      setf t t.io_viol k (io_viol_of t k))
    comps

(* --- Applying moves ------------------------------------------------------- *)

let invalidate t txn set =
  Slif.Estimate.invalidate_nodes t.est set;
  txn.inval <- List.rev_append set txn.inval

let apply_node t txn node to_ =
  let s = slif t in
  if node < 0 || node >= Array.length s.Slif.Types.nodes then
    invalid_arg "Engine.propose: no such node";
  (match (s.Slif.Types.nodes.(node).Slif.Types.n_kind, to_) with
  | Slif.Types.Behavior _, Slif.Partition.Cmem _ ->
      invalid_arg "Engine.propose: behaviors may only move to processors"
  | _ -> ());
  let from = Slif.Partition.comp_of_exn t.part node in
  if from <> to_ then begin
    let ki = Slif.Partition.index_of_comp t.part from in
    let kj = Slif.Partition.index_of_comp t.part to_ in
    (* Size weights first: a missing weight must fail before any state
       changes. *)
    let w_from = size_weight t node (Slif.Partition.comp_tech s from) in
    let w_to = size_weight t node (Slif.Partition.comp_tech s to_) in
    (* Crossing contributions of the node's channels, under the old
       placement, leave the two perturbed components ... *)
    shift_cuts_at_node t ki node (-1);
    shift_cuts_at_node t kj node (-1);
    setf t t.comp_size ki (t.comp_size.(ki) -. w_from);
    setf t t.comp_size kj (t.comp_size.(kj) +. w_to);
    Slif.Partition.assign_node t.part ~node to_;
    txn.undos <- U_node (node, from) :: txn.undos;
    (* ... and re-enter under the new placement. *)
    shift_cuts_at_node t ki node 1;
    shift_cuts_at_node t kj node 1;
    (* Execution times of the node and its transitive accessors changed
       (new ict/transfer technologies), so their memo entries, dependent
       channel bitrates and dependent deadlines are refreshed. *)
    let set = Slif.Graph.transitive_callers t.graph node in
    invalidate t txn set;
    Slif.Estimate.invalidate_out_row t.est node;
    refresh_rates t set;
    refresh_comp_viol t (if ki = kj then [ ki ] else [ ki; kj ]);
    refresh_time t set
  end

let apply_chan t txn chan to_bus =
  let s = slif t in
  if chan < 0 || chan >= Array.length s.Slif.Types.chans then
    invalid_arg "Engine.propose: no such channel";
  if to_bus < 0 || to_bus >= Array.length s.Slif.Types.buses then
    invalid_arg "Engine.propose: no such bus";
  let from_bus = Slif.Partition.bus_of_exn t.part chan in
  if from_bus <> to_bus then begin
    let c = s.Slif.Types.chans.(chan) in
    (* The crossing status is a property of the endpoints' components and
       does not change; only the bus it is attributed to does. *)
    let ks = crossed_comps t c in
    List.iter
      (fun k ->
        seti t t.cut_count.(k) from_bus (t.cut_count.(k).(from_bus) - 1);
        seti t t.cut_count.(k) to_bus (t.cut_count.(k).(to_bus) + 1))
      ks;
    Slif.Partition.assign_chan t.part ~chan ~bus:to_bus;
    txn.undos <- U_chan (chan, from_bus) :: txn.undos;
    (* The new bus changes the channel's transfer time, hence the source
       node's execution time and everything upstream of it — the
       fine-grained invalidation that replaces invalidate_all.  The source
       is in the set, so its leaves on both buses are refreshed. *)
    let set = Slif.Graph.transitive_callers t.graph c.c_src in
    invalidate t txn set;
    Slif.Estimate.invalidate_chan t.est chan;
    refresh_rates t set;
    refresh_comp_viol t ks;
    refresh_time t set
  end

let rec apply t txn = function
  | Move_node { node; to_ } -> apply_node t txn node to_
  | Move_chan { chan; to_bus } -> apply_chan t txn chan to_bus
  | Move_group moves -> List.iter (apply t txn) moves

(* --- Totals --------------------------------------------------------------- *)

let sum arr = Array.fold_left ( +. ) 0.0 arr

(* Read off the tree roots in Cost.evaluate's bus order. *)
let bitrate_violation t =
  let acc = ref 0.0 in
  Array.iteri
    (fun b (bus : Slif.Types.bus) ->
      match bus.Slif.Types.b_capacity_mbps with
      | None -> ()
      | Some cap ->
          acc := !acc +. Cost.excess (Slif_util.Sumtree.total t.bus_rate.(b)) (Some cap))
    (slif t).Slif.Types.buses;
  !acc

let breakdown t =
  let size_violation = sum t.size_viol in
  let io_violation = sum t.io_viol in
  let time_violation = sum t.time_viol in
  let bitrate_violation = bitrate_violation t in
  {
    Cost.size_violation;
    io_violation;
    time_violation;
    bitrate_violation;
    total =
      (t.weights.Cost.w_size *. size_violation)
      +. (t.weights.Cost.w_io *. io_violation)
      +. (t.weights.Cost.w_time *. time_violation)
      +. (t.weights.Cost.w_bitrate *. bitrate_violation);
  }

let cost t = (breakdown t).Cost.total
let comp_size t comp = t.comp_size.(Slif.Partition.index_of_comp t.part comp)
let bus_bitrate t b = Slif_util.Sumtree.total t.bus_rate.(b)

(* --- Transactions --------------------------------------------------------- *)

let rollback_txn t txn =
  List.iter
    (function
      | U_node (node, comp) ->
          Slif.Partition.assign_node t.part ~node comp;
          Slif.Estimate.invalidate_out_row t.est node
      | U_chan (chan, bus) ->
          Slif.Partition.assign_chan t.part ~chan ~bus;
          Slif.Estimate.invalidate_chan t.est chan
      | U_float (arr, i, v) -> arr.(i) <- v
      | U_int (arr, i, v) -> arr.(i) <- v
      | U_rate (b, src, v) -> Slif_util.Sumtree.set t.bus_rate.(b) src v)
    txn.undos;
  Slif.Partition.restore_version t.part txn.saved_version;
  (* The memo entries and channel costs recomputed under the proposed
     placement are stale again; the invalidation set only depends on the
     static graph, so re-dropping the same nodes (above: the moved nodes'
     out-rows and the moved channels) restores coherence. *)
  Slif.Estimate.invalidate_nodes t.est txn.inval;
  t.txn <- None

let propose t move =
  if t.txn <> None then invalid_arg "Engine.propose: a transaction is already pending";
  let txn =
    { saved_version = Slif.Partition.version t.part; undos = []; inval = [] }
  in
  t.txn <- Some txn;
  (match apply t txn move with
  | () -> ()
  | exception e ->
      (* An infeasible submove must not leave a half-applied group. *)
      rollback_txn t txn;
      raise e);
  t.scored <- t.scored + 1;
  Slif_obs.Counter.incr "search.partitions_scored";
  Slif_obs.Counter.incr "engine.moves_proposed";
  cost t

let commit t =
  match t.txn with
  | None -> invalid_arg "Engine.commit: no pending transaction"
  | Some _ ->
      t.txn <- None;
      Slif_obs.Counter.incr "engine.moves_committed"

let rollback t =
  match t.txn with
  | None -> invalid_arg "Engine.rollback: no pending transaction"
  | Some txn ->
      rollback_txn t txn;
      Slif_obs.Counter.incr "engine.moves_rolled_back"

(* --- Construction --------------------------------------------------------- *)

(* Score the partition's current (total) state into zeroed aggregates.
   [create] and [acquire] both come through here, with the same loop
   order and arithmetic, so a re-acquired replica's aggregates are
   bitwise those of a freshly created engine over the same partition. *)
let init_aggregates t =
  let s = slif t in
  Array.iteri
    (fun i _ ->
      let comp = Slif.Partition.comp_of_exn t.part i in
      let k = Slif.Partition.comp_index t.part i in
      t.comp_size.(k) <-
        t.comp_size.(k) +. size_weight t i (Slif.Partition.comp_tech s comp))
    s.Slif.Types.nodes;
  Array.iter
    (fun (c : Slif.Types.channel) ->
      let bus = Slif.Partition.bus_of_exn t.part c.c_id in
      List.iter
        (fun k -> t.cut_count.(k).(bus) <- t.cut_count.(k).(bus) + 1)
        (crossed_comps t c))
    s.Slif.Types.chans;
  Array.iteri
    (fun b tree -> Slif_util.Sumtree.load tree (Slif.Estimate.src_bitrate_mbps t.est b))
    t.bus_rate;
  for k = 0 to t.n_comps - 1 do
    t.size_viol.(k) <- size_viol_of t k;
    t.io_viol.(k) <- io_viol_of t k
  done;
  Array.iteri (fun i _ -> t.time_viol.(i) <- time_viol_of t i) t.deadlines;
  (* Building the aggregates scores the partition in full. *)
  Slif_obs.Counter.incr "search.partitions_scored"

let create ?(weights = Cost.default_weights) ?(constraints = Cost.no_constraints) graph part
    =
  Slif_obs.Span.with_ "engine.create" @@ fun () ->
  let s = Slif.Graph.slif graph in
  let n_nodes = Array.length s.Slif.Types.nodes in
  let n_procs = Array.length s.Slif.Types.procs in
  let n_mems = Array.length s.Slif.Types.mems in
  let n_buses = Array.length s.Slif.Types.buses in
  let n_comps = n_procs + n_mems in
  let est = Search.estimator graph part in
  let proc_comps = Array.init n_procs (fun i -> Slif.Partition.Cproc i) in
  let all_comps =
    Array.append proc_comps (Array.init n_mems (fun m -> Slif.Partition.Cmem m))
  in
  let incident =
    (* Channel ids incident to each node: the out-row, then the in-row
       minus self-loops (their channel is already in the out-row), straight
       off the compact CSR — no channel-record lists are materialized for
       engine construction. *)
    let cg = Slif.Graph.compact graph in
    let open Slif.Compact in
    Array.init n_nodes (fun i ->
        let out_lo = cg.out_off.(i) and out_hi = cg.out_off.(i + 1) in
        let in_lo = cg.in_off.(i) and in_hi = cg.in_off.(i + 1) in
        let loops = ref 0 in
        for k = in_lo to in_hi - 1 do
          if cg.chan_src.(cg.in_chan.(k)) = i then incr loops
        done;
        let row = Array.make (out_hi - out_lo + (in_hi - in_lo) - !loops) 0 in
        Array.blit cg.out_chan out_lo row 0 (out_hi - out_lo);
        let j = ref (out_hi - out_lo) in
        for k = in_lo to in_hi - 1 do
          let c = cg.in_chan.(k) in
          if cg.chan_src.(c) <> i then begin
            row.(!j) <- c;
            incr j
          end
        done;
        row)
  in
  let deadlines =
    Array.of_list
      (List.filter_map
         (fun (name, deadline) ->
           match Slif.Types.node_by_name s name with
           | Some node -> Some (node.Slif.Types.n_id, deadline)
           | None -> None)
         constraints.Cost.deadlines_us)
  in
  let t =
    {
      graph;
      part;
      est;
      weights;
      deadlines;
      n_procs;
      n_comps;
      comp_size = Array.make n_comps 0.0;
      cut_count = Array.init n_comps (fun _ -> Array.make n_buses 0);
      bus_rate = Array.init n_buses (fun _ -> Slif_util.Sumtree.create n_nodes);
      size_viol = Array.make n_comps 0.0;
      io_viol = Array.make n_comps 0.0;
      time_viol = Array.make (Array.length deadlines) 0.0;
      proc_comps;
      all_comps;
      incident;
      mark = Array.make n_nodes false;
      txn = None;
      scored = 0;
    }
  in
  (* Initial aggregates from the partition's current state (requires a
     total mapping, like Cost.evaluate). *)
  init_aggregates t;
  t

let of_problem (problem : Search.problem) part =
  create ~weights:problem.Search.weights ~constraints:problem.Search.constraints
    problem.Search.graph part

(* Re-point an existing engine at a fresh partition of the same SLIF.
   Everything immutable — incident lists, candidate arrays, resolved
   deadlines, the estimator's preallocated memo — is kept; only the
   aggregates are zeroed and rescored.  This is the per-domain replica
   primitive: a pool worker creates one engine at domain start-up and
   re-acquires it for every work item, so the per-task cost drops from a
   full [create] (incident-list and estimator construction included) to
   one initial scoring over arrays that are already hot in its cache,
   with zero allocation shared across domains. *)
let acquire t part =
  if t.txn <> None then invalid_arg "Engine.acquire: a transaction is pending";
  let rebind () =
    Slif_obs.Span.with_ "engine.acquire" @@ fun () ->
    Slif_obs.Counter.incr "engine.acquires";
    t.part <- part;
    Slif.Estimate.rebind t.est part;
    t.scored <- 0;
    (* The additive aggregates must restart from zero; the remaining
       arrays are fully overwritten by [init_aggregates]. *)
    Array.fill t.comp_size 0 t.n_comps 0.0;
    Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.cut_count;
    init_aggregates t
  in
  if not (Slif_obs.Attribution.on ()) then rebind ()
  else begin
    let t0 = Slif_obs.Clock.now_us () in
    rebind ();
    (* The re-acquisition cost is engine-setup work inside the task
       body, carved out of gross task-run by the report. *)
    Slif_obs.Attribution.add Slif_obs.Attribution.Copy (Slif_obs.Clock.now_us () -. t0)
  end

let start ?replica problem part =
  match replica with
  | Some t ->
      acquire t part;
      t
  | None -> of_problem problem part

(* --- Move generation ------------------------------------------------------ *)

let candidates t node =
  let s = slif t in
  match s.Slif.Types.nodes.(node).Slif.Types.n_kind with
  | Slif.Types.Behavior _ -> t.proc_comps
  | Slif.Types.Variable _ -> t.all_comps

let random_move t rng =
  let s = slif t in
  let n_nodes = Array.length s.Slif.Types.nodes in
  let n_chans = Array.length s.Slif.Types.chans in
  let n_buses = Array.length s.Slif.Types.buses in
  let try_chan = n_buses > 1 && n_chans > 0 && Slif_util.Prng.int rng 4 = 0 in
  if try_chan then begin
    let chan = Slif_util.Prng.int rng n_chans in
    let to_bus = Slif_util.Prng.int rng n_buses in
    if to_bus = Slif.Partition.bus_of_exn t.part chan then None
    else Some (Move_chan { chan; to_bus })
  end
  else begin
    let node = Slif_util.Prng.int rng n_nodes in
    let cands = candidates t node in
    let to_ = cands.(Slif_util.Prng.int rng (Array.length cands)) in
    if to_ = Slif.Partition.comp_of_exn t.part node then None
    else Some (Move_node { node; to_ })
  end

let moves_to t target =
  let s = slif t in
  let nodes =
    Array.to_list
      (Array.mapi
         (fun i _ ->
           let want = Slif.Partition.comp_of_exn target i in
           if Slif.Partition.comp_of t.part i <> Some want then
             Some (Move_node { node = i; to_ = want })
           else None)
         s.Slif.Types.nodes)
  in
  let chans =
    Array.to_list
      (Array.mapi
         (fun i _ ->
           let want = Slif.Partition.bus_of_exn target i in
           if Slif.Partition.bus_of t.part i <> Some want then
             Some (Move_chan { chan = i; to_bus = want })
           else None)
         s.Slif.Types.chans)
  in
  List.filter_map Fun.id (nodes @ chans)
