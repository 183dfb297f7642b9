type t = {
  n_nodes : int;
  n_chans : int;
  n_techs : int;
  node_is_var : Bytes.t;
  ict_off : int array;
  ict_tech : int array;
  ict_val : float array;
  size_off : int array;
  size_tech : int array;
  size_val : float array;
  chan_src : int array;
  chan_dst : int array;
  chan_bits : int array;
  chan_tag : int array;
  chan_kind : int array;
  chan_freq : float array;
  chan_freq_min : float array;
  chan_freq_max : float array;
  out_off : int array;
  out_chan : int array;
  chan_slot : int array;
  in_off : int array;
  in_chan : int array;
  tech_names : string array;
  comp_tech : int array;
  bus_width : int array;
  bus_ts : float array;
  bus_td : float array;
  bus_td_default : float array;
}

let kind_call = 0
let kind_var_access = 1
let kind_port_access = 2
let kind_message = 3

let kind_code = function
  | Types.Call -> kind_call
  | Types.Var_access -> kind_var_access
  | Types.Port_access -> kind_port_access
  | Types.Message -> kind_message

let make (s : Types.t) =
  let n_nodes = Array.length s.nodes in
  let n_chans = Array.length s.chans in
  (* Intern every technology name that can reach a lookup: component
     technologies, per-bus annotation keys and per-node weight keys.  A
     dense id per name lets the weight rows and bus matrices below replace
     string-keyed assoc scans with array reads.  A decoded v2 store shares
     one string per technology, so [intern] first compares physically with
     the string last seen for each of the first eight ids and hashes only
     on a miss, which repoints that id: fresh strings (a v1 decode) cost a
     bounded scan besides the hash, shared ones no hash at all. *)
  let tech_ix = Hashtbl.create 16 in
  let last_seen = Array.make 8 "" in
  let tech_rev = ref [] in
  let next_tech = ref 0 in
  let intern name =
    let scan = min !next_tech (Array.length last_seen) in
    let rec find i =
      if i = scan then begin
        let id =
          match Hashtbl.find_opt tech_ix name with
          | Some id -> id
          | None ->
              let id = !next_tech in
              Hashtbl.add tech_ix name id;
              tech_rev := name :: !tech_rev;
              incr next_tech;
              id
        in
        if id < Array.length last_seen then last_seen.(id) <- name;
        id
      end
      else if last_seen.(i) == name then i
      else find (i + 1)
    in
    find 0
  in
  let comp_tech =
    Array.append
      (Array.map (fun (p : Types.processor) -> intern p.p_tech) s.procs)
      (Array.map (fun (m : Types.memory) -> intern m.m_tech) s.mems)
  in
  Array.iter
    (fun (b : Types.bus) ->
      List.iter (fun (tn, _) -> ignore (intern tn)) b.b_ts_by_tech;
      List.iter
        (fun ((a, bt), _) ->
          ignore (intern a);
          ignore (intern bt))
        b.b_td_by_pair)
    s.buses;
  (* Node kinds and weight rows. *)
  let node_is_var = Bytes.make n_nodes '\000' in
  let ict_off = Array.make (n_nodes + 1) 0 in
  let size_off = Array.make (n_nodes + 1) 0 in
  for i = 0 to n_nodes - 1 do
    let n = s.nodes.(i) in
    (match n.n_kind with
    | Types.Variable _ -> Bytes.unsafe_set node_is_var i '\001'
    | Types.Behavior _ -> ());
    ict_off.(i + 1) <- ict_off.(i) + List.length n.n_ict;
    size_off.(i + 1) <- size_off.(i) + List.length n.n_size
  done;
  let ict_tech = Array.make ict_off.(n_nodes) 0 in
  let ict_val = Array.make ict_off.(n_nodes) 0.0 in
  let size_tech = Array.make size_off.(n_nodes) 0 in
  let size_val = Array.make size_off.(n_nodes) 0.0 in
  for i = 0 to n_nodes - 1 do
    let n = s.nodes.(i) in
    let k = ref ict_off.(i) in
    List.iter
      (fun (tn, v) ->
        ict_tech.(!k) <- intern tn;
        ict_val.(!k) <- v;
        incr k)
      n.n_ict;
    let k = ref size_off.(i) in
    List.iter
      (fun (tn, v) ->
        size_tech.(!k) <- intern tn;
        size_val.(!k) <- v;
        incr k)
      n.n_size
  done;
  let n_techs = !next_tech in
  let tech_names = Array.of_list (List.rev !tech_rev) in
  (* Channels as parallel arrays. *)
  let chan_src = Array.make n_chans 0 in
  let chan_dst = Array.make n_chans 0 in
  let chan_bits = Array.make n_chans 0 in
  let chan_tag = Array.make n_chans (-1) in
  let chan_kind = Array.make n_chans 0 in
  let chan_freq = Array.make n_chans 0.0 in
  let chan_freq_min = Array.make n_chans 0.0 in
  let chan_freq_max = Array.make n_chans 0.0 in
  for c = 0 to n_chans - 1 do
    let ch = s.chans.(c) in
    chan_src.(c) <- ch.c_src;
    chan_dst.(c) <-
      (match ch.c_dst with Types.Dnode d -> d | Types.Dport p -> -(p + 1));
    chan_bits.(c) <- ch.c_bits;
    chan_tag.(c) <- (match ch.c_tag with Some tag -> tag | None -> -1);
    chan_kind.(c) <- kind_code ch.c_kind;
    chan_freq.(c) <- ch.c_accfreq;
    chan_freq_min.(c) <- ch.c_accfreq_min;
    chan_freq_max.(c) <- ch.c_accfreq_max
  done;
  (* CSR adjacency: count degrees, prefix-sum, then fill forward so
     channel ids ascend within each row (the order of Graph's per-node
     lists, hence of every float summation downstream). *)
  let out_off = Array.make (n_nodes + 1) 0 in
  let in_off = Array.make (n_nodes + 1) 0 in
  for c = 0 to n_chans - 1 do
    out_off.(chan_src.(c) + 1) <- out_off.(chan_src.(c) + 1) + 1;
    let d = chan_dst.(c) in
    if d >= 0 then in_off.(d + 1) <- in_off.(d + 1) + 1
  done;
  for i = 1 to n_nodes do
    out_off.(i) <- out_off.(i) + out_off.(i - 1);
    in_off.(i) <- in_off.(i) + in_off.(i - 1)
  done;
  let out_chan = Array.make out_off.(n_nodes) 0 in
  let chan_slot = Array.make n_chans 0 in
  let in_chan = Array.make in_off.(n_nodes) 0 in
  let out_cur = Array.copy out_off in
  let in_cur = Array.copy in_off in
  for c = 0 to n_chans - 1 do
    let src = chan_src.(c) in
    out_chan.(out_cur.(src)) <- c;
    chan_slot.(c) <- out_cur.(src);
    out_cur.(src) <- out_cur.(src) + 1;
    let d = chan_dst.(c) in
    if d >= 0 then begin
      in_chan.(in_cur.(d)) <- c;
      in_cur.(d) <- in_cur.(d) + 1
    end
  done;
  (* Buses: resolve ts/td against the interned table once, including the
     default fallbacks, so the transfer-time inner loop is two array
     reads. *)
  let n_buses = Array.length s.buses in
  let bus_width = Array.map (fun (b : Types.bus) -> b.b_bitwidth) s.buses in
  let bus_td_default = Array.map (fun (b : Types.bus) -> b.b_td_us) s.buses in
  let bus_ts = Array.make (n_buses * n_techs) 0.0 in
  let bus_td = Array.make (n_buses * n_techs * n_techs) 0.0 in
  for b = 0 to n_buses - 1 do
    let bus = s.buses.(b) in
    for a = 0 to n_techs - 1 do
      bus_ts.((b * n_techs) + a) <- Types.bus_ts bus ~tech:tech_names.(a);
      for b2 = 0 to n_techs - 1 do
        bus_td.((((b * n_techs) + a) * n_techs) + b2) <-
          Types.bus_td bus ~a:tech_names.(a) ~b:tech_names.(b2)
      done
    done
  done;
  {
    n_nodes;
    n_chans;
    n_techs;
    node_is_var;
    ict_off;
    ict_tech;
    ict_val;
    size_off;
    size_tech;
    size_val;
    chan_src;
    chan_dst;
    chan_bits;
    chan_tag;
    chan_kind;
    chan_freq;
    chan_freq_min;
    chan_freq_max;
    out_off;
    out_chan;
    chan_slot;
    in_off;
    in_chan;
    tech_names;
    comp_tech;
    bus_width;
    bus_ts;
    bus_td;
    bus_td_default;
  }

let ict_ix t id tech =
  let stop = t.ict_off.(id + 1) in
  let rec go k = if k >= stop then -1 else if t.ict_tech.(k) = tech then k else go (k + 1) in
  go t.ict_off.(id)

let size_ix t id tech =
  let stop = t.size_off.(id + 1) in
  let rec go k =
    if k >= stop then -1 else if t.size_tech.(k) = tech then k else go (k + 1)
  in
  go t.size_off.(id)

let is_var t id = Bytes.unsafe_get t.node_is_var id <> '\000'
