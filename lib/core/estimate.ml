exception Recursive_specification of string

type mode = Avg | Min | Max

(* The execution-time memo is an unboxed generation-stamped pair of
   arrays: entry [i] is valid iff [memo_gen.(i) = gen].  Compared to the
   [float option array] it replaces, a memo store no longer allocates a
   [Some] box (the old layout produced one short-lived block per miss —
   tens of millions per sweep — which was the single biggest source of
   minor-GC pressure in parallel exploration), and [invalidate_all]
   becomes a generation bump instead of an O(nodes) fill.  The estimator
   is single-domain by design: in the share-nothing exploration stack
   each pool worker owns its own estimator, so no cell here is ever
   written by two domains.

   The traversal itself runs on the graph's [Compact] arrays: CSR
   adjacency rows instead of channel-record lists, interned technology
   ids instead of [List.assoc] on string keys, and pre-resolved per-bus
   ts/td matrices.  Iteration order (channel ids ascending per node) and
   every float operation match the record path exactly, so estimates are
   bitwise unchanged — only the constant factor per channel hop drops.

   Eq. 1 also caches per out-row slot: [slot_val.(k)] is the cost of the
   channel at CSR position [k], valid iff [slot_gen.(k) = gen].  A memo
   miss re-prices only the node's stale slots and then left-folds the
   whole row from the cache, so re-timing a behavior that calls a
   thousand others costs a thousand float adds, not a thousand priced
   channels.  A slot's cost reads four things — the channel's bus, the
   source's component, the destination's component, and the
   destination's execution time or ict — and the invalidators below
   stale exactly the slots a change to one of them reaches.

   Eq. 3 caches, per source, the bits it sends per execution on each bus
   ([w_val], valid per [w_gen]).  Those weights read only the bus mapping
   of the source's channels, so they outlive every node move, and a
   re-timed source re-divides them instead of re-walking its row. *)
type t = {
  graph : Graph.t;
  cg : Compact.t;                   (* the graph's struct-of-arrays mirror *)
  mutable part : Partition.t;  (* mutable so a replica can [rebind] it *)
  mode : mode;
  concurrency : bool;
  recursion_depth : int;
  cyclic : bool;                    (* call cycle present: disable caching *)
  freqs : float array;              (* the mode's per-channel access frequency *)
  memo_val : float array;           (* exectime per node, valid per memo_gen *)
  memo_gen : int array;
  slot_val : float array;           (* eq. 1 cost per out-row slot, valid per slot_gen *)
  slot_gen : int array;
  n_buses : int;
  w_val : float array;              (* eq. 3 weight at [(src * n_buses) + bus] *)
  w_gen : int array;                (* per source: its n_buses weights are valid *)
  mutable gen : int;                (* current generation, always >= 1 *)
  visit : int array;                (* recursion depths; all zero between calls *)
  mutable synced_version : int;
  mutable queries : int;
  mutable hits : int;
  (* Resolved counter cells: the memo path bumps these tens of millions
     of times per profiled sweep, so it must not pay a hash lookup per
     bump.  Resolved on the creating domain — the domain that runs the
     estimator, in the per-domain replica architecture. *)
  c_exectime : Slif_obs.Counter.cell;
  c_hit : Slif_obs.Counter.cell;
  c_miss : Slif_obs.Counter.cell;
  c_inval_full : Slif_obs.Counter.cell;
  c_inval_incr : Slif_obs.Counter.cell;
}

let create ?(mode = Avg) ?(concurrency = false) ?(recursion_depth = 0) graph part =
  let s = Graph.slif graph in
  let n_nodes = Array.length s.Types.nodes in
  let cg = Graph.compact graph in
  let n_buses = Array.length cg.Compact.bus_width in
  {
    graph;
    cg;
    part;
    mode;
    concurrency;
    recursion_depth;
    cyclic = Graph.has_call_cycle graph;
    freqs =
      (match mode with
      | Avg -> cg.Compact.chan_freq
      | Min -> cg.Compact.chan_freq_min
      | Max -> cg.Compact.chan_freq_max);
    memo_val = Array.make n_nodes 0.0;
    memo_gen = Array.make n_nodes 0;
    slot_val = Array.make cg.Compact.n_chans 0.0;
    slot_gen = Array.make cg.Compact.n_chans 0;
    n_buses;
    w_val = Array.make (n_nodes * n_buses) 0.0;
    w_gen = Array.make n_nodes 0;
    gen = 1;
    visit = Array.make n_nodes 0;
    synced_version = Partition.version part;
    queries = 0;
    hits = 0;
    c_exectime = Slif_obs.Counter.cell "estimate.exectime_calls";
    c_hit = Slif_obs.Counter.cell "estimate.memo_hit";
    c_miss = Slif_obs.Counter.cell "estimate.memo_miss";
    c_inval_full = Slif_obs.Counter.cell "estimate.invalidate_full";
    c_inval_incr = Slif_obs.Counter.cell "estimate.invalidate_incremental";
  }

let graph t = t.graph
let partition t = t.part

let invalidate_all t =
  Slif_obs.Counter.bump t.c_inval_full;
  (* A generation bump orphans every memo entry at once; the arrays are
     left in place and entries rewrite lazily as queries return. *)
  t.gen <- t.gen + 1;
  t.synced_version <- Partition.version t.part

(* Generations start at 1, so 0 never matches [t.gen].  A node's in-row
   slots price its execution time (or ict) into each caller's row, so
   they go stale with its memo entry. *)
let invalidate_nodes t ids =
  Slif_obs.Counter.bump t.c_inval_incr;
  let cg = t.cg in
  List.iter
    (fun id ->
      t.memo_gen.(id) <- 0;
      for k = cg.Compact.in_off.(id) to cg.Compact.in_off.(id + 1) - 1 do
        t.slot_gen.(cg.Compact.chan_slot.(cg.Compact.in_chan.(k))) <- 0
      done)
    ids;
  t.synced_version <- Partition.version t.part

let invalidate_out_row t node =
  let lo = t.cg.Compact.out_off.(node) in
  Array.fill t.slot_gen lo (t.cg.Compact.out_off.(node + 1) - lo) 0

let invalidate_chan t chan =
  t.slot_gen.(t.cg.Compact.chan_slot.(chan)) <- 0;
  t.w_gen.(t.cg.Compact.chan_src.(chan)) <- 0

(* The one owner of each move's invalidation rule: the moved node's (or
   the moved channel's source's) transitive callers, plus the cached
   costs the move itself staled.  The set is returned for the engine's
   rollback journal. *)
let note_node_moved t node =
  let set = Graph.transitive_callers t.graph node in
  invalidate_nodes t set;
  invalidate_out_row t node;
  set

let note_chan_moved t chan =
  let s = Graph.slif t.graph in
  if chan < 0 || chan >= Array.length s.Types.chans then
    invalid_arg "Estimate.note_chan_moved: no such channel";
  let set = Graph.transitive_callers t.graph s.Types.chans.(chan).Types.c_src in
  invalidate_nodes t set;
  invalidate_chan t chan;
  set

(* Re-point the estimator at another (total) partition of the same SLIF,
   dropping the whole memo.  This is how an engine replica re-engages a
   new candidate without reallocating any of the arrays above. *)
let rebind t part =
  t.part <- part;
  invalidate_all t

let sync t = if Partition.version t.part <> t.synced_version then invalidate_all t

let freq t (c : Types.channel) =
  match t.mode with
  | Avg -> c.c_accfreq
  | Min -> c.c_accfreq_min
  | Max -> c.c_accfreq_max

(* ict weight of node [id] on the technology (id) of its component; the
   slow path rebuilds the record-world error message. *)
let no_ict_weight t id tid =
  let s = Graph.slif t.graph in
  invalid_arg
    (Printf.sprintf "Estimate: node %s has no ict weight for technology %s"
       s.Types.nodes.(id).Types.n_name
       t.cg.Compact.tech_names.(tid))

let node_ict_tid t id tid =
  let ix = Compact.ict_ix t.cg id tid in
  if ix >= 0 then t.cg.Compact.ict_val.(ix) else no_ict_weight t id tid

(* The interned technology of the node's component, read off the
   partition's unboxed slot; an unassigned node fails as GetBvComp does. *)
let node_tech t id =
  let k = Partition.comp_index t.part id in
  if k < 0 then ignore (Partition.comp_of_exn t.part id : Partition.comp);
  t.cg.Compact.comp_tech.(k)

let node_ict t id = node_ict_tid t id (node_tech t id)

(* Transfer time of channel [c] (by id): [ceil(bits/width)] bus transfers
   at ts (same component) or td (cross-component / port).  The ts/td
   values come from the compact per-bus matrices, which [Compact.make]
   resolved with Types.bus_ts/bus_td — fallbacks included — so the
   result is the record path's to the bit. *)
let transfer_time_by_id t c =
  let cg = t.cg in
  let bus = Partition.bus_of_exn t.part c in
  let transfers = Slif_util.Bitmath.ceil_div cg.Compact.chan_bits.(c) cg.Compact.bus_width.(bus) in
  let src = cg.Compact.chan_src.(c) in
  let st = node_tech t src in
  let d = cg.Compact.chan_dst.(c) in
  let nt = cg.Compact.n_techs in
  let bdt =
    if d >= 0 && Partition.same_component_nodes t.part src d then
      cg.Compact.bus_ts.((bus * nt) + st)
    else if d < 0 then
      (* External pins have no technology: the default td applies. *)
      cg.Compact.bus_td_default.(bus)
    else
      let dt = node_tech t d in
      cg.Compact.bus_td.((((bus * nt) + st) * nt) + dt)
  in
  float_of_int transfers *. bdt

(* Communication cost of one channel access: bus transfer plus the accessed
   object's execution time (eq. 1).  [exec] recurses for callees. *)
let chan_cost_by_id t exec c =
  let cg = t.cg in
  let transfer = transfer_time_by_id t c in
  let d = cg.Compact.chan_dst.(c) in
  let dst_time =
    if d < 0 then 0.0
    else if Compact.is_var cg d then node_ict t d
    else if
      (* Messages do not serialize the receiver (DESIGN.md §5). *)
      cg.Compact.chan_kind.(c) = Compact.kind_message
    then 0.0
    else exec d
  in
  t.freqs.(c) *. (transfer +. dst_time)

(* Re-price out-row slot [k] and cache its cost.  On a call cycle nothing
   is cached, so the stamp is never written and every read re-prices the
   channel. *)
let price_slot t exec k =
  let cost = chan_cost_by_id t exec t.cg.Compact.out_chan.(k) in
  if not t.cyclic then begin
    t.slot_val.(k) <- cost;
    t.slot_gen.(k) <- t.gen
  end;
  cost

(* Inlined at each use, so a cache hit reads the float unboxed. *)
let[@inline] slot_cost t exec k =
  if t.slot_gen.(k) = t.gen then t.slot_val.(k) else price_slot t exec k

(* The row is a left fold in slot order — ascending channel id, the record
   path's list order — and must stay one: ether's [linkmon] prints 248.92
   under this association and 248.91 under a pairwise one.  Group
   same-tag channels: within a tag group, accesses can overlap, so the
   group costs the max of its members (fork/join semantics). *)
let comm_time t exec id =
  let cg = t.cg in
  let lo = cg.Compact.out_off.(id) and hi = cg.Compact.out_off.(id + 1) in
  if not t.concurrency then begin
    let acc = ref 0.0 in
    for k = lo to hi - 1 do
      acc := !acc +. slot_cost t exec k
    done;
    !acc
  end
  else begin
    let tagged = Hashtbl.create 8 in
    let untagged = ref 0.0 in
    for k = lo to hi - 1 do
      let cost = slot_cost t exec k in
      let tag = cg.Compact.chan_tag.(cg.Compact.out_chan.(k)) in
      if tag < 0 then untagged := !untagged +. cost
      else
        let prev = Option.value (Hashtbl.find_opt tagged tag) ~default:0.0 in
        Hashtbl.replace tagged tag (max prev cost)
    done;
    Hashtbl.fold (fun _ cost acc -> acc +. cost) tagged !untagged
  end

(* The recursion-depth scratch ([t.visit]) is zero outside a call; every
   recursive entry restores its slot on the way out, so the only way to
   leave residue is an exception mid-recursion — cleaned up here so a
   caught [Recursive_specification] cannot poison later queries. *)
let with_clean_visit t f =
  match f () with
  | v -> v
  | exception e ->
      Array.fill t.visit 0 (Array.length t.visit) 0;
      raise e

let exectime_us t id =
  sync t;
  Slif_obs.Counter.bump t.c_exectime;
  with_clean_visit t @@ fun () ->
  let rec exec id =
    t.queries <- t.queries + 1;
    if t.memo_gen.(id) = t.gen then begin
      t.hits <- t.hits + 1;
      Slif_obs.Counter.bump t.c_hit;
      t.memo_val.(id)
    end
    else begin
      Slif_obs.Counter.bump t.c_miss;
      let depth = t.visit.(id) in
      if depth > 0 && t.recursion_depth = 0 then
        raise
          (Recursive_specification (Graph.slif t.graph).Types.nodes.(id).Types.n_name);
      if depth > t.recursion_depth then 0.0
      else begin
        t.visit.(id) <- depth + 1;
        let ict = node_ict t id in
        let value = ict +. comm_time t exec id in
        t.visit.(id) <- depth;
        if not t.cyclic then begin
          t.memo_val.(id) <- value;
          t.memo_gen.(id) <- t.gen
        end;
        value
      end
    end
  in
  exec id

let transfer_time_us t (c : Types.channel) =
  sync t;
  transfer_time_by_id t c.c_id

let chan_bitrate_mbps t (c : Types.channel) =
  let src_time = exectime_us t c.c_src in
  if src_time <= 0.0 then 0.0
  else freq t c *. float_of_int c.c_bits /. src_time

(* W(bus, src) for every bus in one walk of the source's row: each bus's
   weight is the left fold of freq x bits over the source's channels on
   it, in slot order. *)
let weigh_src t src =
  let cg = t.cg in
  let base = src * t.n_buses in
  Array.fill t.w_val base t.n_buses 0.0;
  for k = cg.Compact.out_off.(src) to cg.Compact.out_off.(src + 1) - 1 do
    let c = cg.Compact.out_chan.(k) in
    match Partition.bus_of t.part c with
    | Some b ->
        t.w_val.(base + b) <-
          t.w_val.(base + b) +. (t.freqs.(c) *. float_of_int cg.Compact.chan_bits.(c))
    | None -> ()
  done;
  t.w_gen.(src) <- t.gen

(* Eq. 3 factored by source: W divided once by the source's execution
   time.  A source that sends no bits on the bus is never timed. *)
let src_bitrate_mbps t bus src =
  sync t;
  if t.w_gen.(src) <> t.gen then weigh_src t src;
  let w = t.w_val.((src * t.n_buses) + bus) in
  if w = 0.0 then 0.0
  else
    let src_time = exectime_us t src in
    if src_time <= 0.0 then 0.0 else w /. src_time

(* A pairwise sum over every node id, sources off the bus contributing
   0.0: the shape the move engine maintains per bus, so its bitrates are
   this value to the bit. *)
let bus_bitrate_mbps t bus =
  Slif_util.Sumtree.sum t.cg.Compact.n_nodes (src_bitrate_mbps t bus)

(* --- Capacity-aware (contended) execution time --------------------------
   Transfers on an over-committed bus slow by the demand/capacity ratio;
   slower transfers stretch execution times, which lowers demand, so the
   factors are iterated to a fixpoint. *)

let exectime_scaled t factors id =
  let s = Graph.slif t.graph in
  let cg = t.cg in
  with_clean_visit t @@ fun () ->
  let rec exec id =
    let depth = t.visit.(id) in
    if depth > 0 && t.recursion_depth = 0 then
      raise (Recursive_specification s.Types.nodes.(id).Types.n_name);
    if depth > t.recursion_depth then 0.0
    else begin
      t.visit.(id) <- depth + 1;
      let ict = node_ict t id in
      let comm = ref 0.0 in
      for k = cg.Compact.out_off.(id) to cg.Compact.out_off.(id + 1) - 1 do
        let c = cg.Compact.out_chan.(k) in
        let bus = Partition.bus_of_exn t.part c in
        let transfer = transfer_time_by_id t c *. factors.(bus) in
        let d = cg.Compact.chan_dst.(c) in
        let dst_time =
          if d < 0 then 0.0
          else if Compact.is_var cg d then node_ict t d
          else if cg.Compact.chan_kind.(c) = Compact.kind_message then 0.0
          else exec d
        in
        comm := !comm +. (t.freqs.(c) *. (transfer +. dst_time))
      done;
      t.visit.(id) <- depth;
      ict +. !comm
    end
  in
  exec id

let bus_slowdowns ?(iterations = 8) t =
  Slif_obs.Span.with_ "estimate.bus_slowdowns" @@ fun () ->
  sync t;
  let s = Graph.slif t.graph in
  let cg = t.cg in
  let n_buses = Array.length s.Types.buses in
  let factors = Array.make n_buses 1.0 in
  for _ = 1 to iterations do
    (* Demand per bus under the current factors. *)
    let demand = Array.make n_buses 0.0 in
    for c = 0 to cg.Compact.n_chans - 1 do
      let bus = Partition.bus_of_exn t.part c in
      let src_time = exectime_scaled t factors cg.Compact.chan_src.(c) in
      if src_time > 0.0 then
        demand.(bus) <-
          demand.(bus) +. (t.freqs.(c) *. float_of_int cg.Compact.chan_bits.(c) /. src_time)
    done;
    Array.iteri
      (fun i (b : Types.bus) ->
        match b.Types.b_capacity_mbps with
        | Some cap when cap > 0.0 ->
            (* Scale toward demand = capacity; the factor may shrink again
               after an overshoot but never drops below 1 (an uncontended
               bus runs at full speed). *)
            factors.(i) <- Float.max 1.0 (factors.(i) *. (demand.(i) /. cap))
        | _ -> ())
      s.Types.buses
  done;
  factors

let exectime_contended_us ?iterations t id =
  let factors = bus_slowdowns ?iterations t in
  exectime_scaled t factors id

let no_size_weight t id tid =
  let s = Graph.slif t.graph in
  invalid_arg
    (Printf.sprintf "Estimate: node %s has no size weight for technology %s"
       s.Types.nodes.(id).Types.n_name
       t.cg.Compact.tech_names.(tid))

let size t comp =
  Slif_obs.Counter.incr "estimate.size_calls";
  let cg = t.cg in
  let k = Partition.index_of_comp t.part comp in
  if k < 0 then invalid_arg "Estimate.size: no such component";
  let tid = cg.Compact.comp_tech.(k) in
  List.fold_left
    (fun acc id ->
      let ix = Compact.size_ix cg id tid in
      if ix >= 0 then acc +. cg.Compact.size_val.(ix) else no_size_weight t id tid)
    0.0
    (Partition.nodes_of_comp t.part comp)

let crosses t k (c : Types.channel) =
  let src_in = Partition.comp_index t.part c.c_src = k in
  let dst_in =
    match c.c_dst with
    | Types.Dport _ -> false
    | Types.Dnode d -> Partition.comp_index t.part d = k
  in
  src_in <> dst_in

let cut_chans t comp =
  sync t;
  let s = Graph.slif t.graph in
  let k = Partition.index_of_comp t.part comp in
  if k < 0 then [] else Array.to_list s.Types.chans |> List.filter (crosses t k)

let io_pins t comp =
  Slif_obs.Counter.incr "estimate.io_pins_calls";
  let s = Graph.slif t.graph in
  let cut_buses =
    List.sort_uniq compare
      (List.map (fun (c : Types.channel) -> Partition.bus_of_exn t.part c.c_id)
         (cut_chans t comp))
  in
  List.fold_left (fun acc b -> acc + s.Types.buses.(b).Types.b_bitwidth) 0 cut_buses

let stats_queries t = t.queries
let stats_cache_hits t = t.hits
