(* The compact struct-of-arrays mirror is the primary representation:
   every adjacency query below reads CSR rows.  The per-node channel
   *record* lists survive for callers that want them ([out_chans]), but
   are materialized lazily — a million-node graph whose consumers stay on
   the compact arrays never pays for the cons cells. *)
type t = {
  slif : Types.t;
  compact : Compact.t;
  out_ : Types.channel list array Lazy.t;   (* by source node id *)
  in_ : Types.channel list array Lazy.t;    (* by destination node id *)
}

let make (s : Types.t) =
  let n = Array.length s.nodes in
  let lists () =
    let out_ = Array.make n [] in
    let in_ = Array.make n [] in
    (* Iterate in reverse so the per-node lists end up in channel order. *)
    for i = Array.length s.chans - 1 downto 0 do
      let c = s.chans.(i) in
      out_.(c.c_src) <- c :: out_.(c.c_src);
      match c.c_dst with
      | Types.Dnode d -> in_.(d) <- c :: in_.(d)
      | Types.Dport _ -> ()
    done;
    (out_, in_)
  in
  let adj = Lazy.from_fun lists in
  {
    slif = s;
    compact = Compact.make s;
    out_ = lazy (fst (Lazy.force adj));
    in_ = lazy (snd (Lazy.force adj));
  }

let slif t = t.slif
let compact t = t.compact

let out_chans t id = (Lazy.force t.out_).(id)
let in_chans t id = (Lazy.force t.in_).(id)

let dedup ids = List.sort_uniq compare ids

let callees t id =
  let cg = t.compact in
  let acc = ref [] in
  for k = cg.Compact.out_off.(id) to cg.Compact.out_off.(id + 1) - 1 do
    let c = cg.Compact.out_chan.(k) in
    if cg.Compact.chan_kind.(c) = Compact.kind_call && cg.Compact.chan_dst.(c) >= 0 then
      acc := cg.Compact.chan_dst.(c) :: !acc
  done;
  dedup !acc

let has_call_cycle t =
  let n = Array.length t.slif.nodes in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let state = Array.make n 0 in
  let rec visit id =
    if state.(id) = 1 then true
    else if state.(id) = 2 then false
    else begin
      state.(id) <- 1;
      let cyclic = List.exists visit (callees t id) in
      state.(id) <- 2;
      cyclic
    end
  in
  let rec any id = id < n && (visit id || any (id + 1)) in
  any 0

let bfs ~next start =
  let seen = Hashtbl.create 16 in
  let rec loop acc = function
    | [] -> List.rev acc
    | id :: rest ->
        if Hashtbl.mem seen id then loop acc rest
        else begin
          Hashtbl.add seen id ();
          loop (id :: acc) (next id @ rest)
        end
  in
  loop [] [ start ]

let transitive_callers t id =
  (* Any behavior with a channel to [id] depends on its mapping; so do that
     behavior's transitive accessors. *)
  let cg = t.compact in
  bfs id ~next:(fun id ->
      let acc = ref [] in
      for k = cg.Compact.in_off.(id) to cg.Compact.in_off.(id + 1) - 1 do
        acc := cg.Compact.chan_src.(cg.Compact.in_chan.(k)) :: !acc
      done;
      dedup !acc)
