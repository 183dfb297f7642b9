(* Counters live in padded per-domain cells ([Registry.new_cell],
   value in slot 0) so two domains bumping different counters never
   contend on a cache line.  A cell that exists with value 0 is treated
   as absent everywhere below, which keeps [Registry.reset] — which
   zeroes cells in place instead of dropping them — invisible to
   readers. *)

let find_cell name =
  let l = Registry.local () in
  match Hashtbl.find_opt l.Registry.counters name with
  | Some c -> c
  | None ->
      let c = Registry.new_cell () in
      Hashtbl.add l.Registry.counters name c;
      c

let add name n =
  if Registry.on () then begin
    let c = find_cell name in
    c.(0) <- c.(0) + n
  end

let incr ?(by = 1) name = add name by

(* --- Resolved handles ---------------------------------------------------

   The estimate memo path bumps its hit/miss counters tens of millions of
   times per profiled sweep; paying a hash lookup per bump there is the
   kind of shared-path overhead this layer exists to measure, not add.
   A handle resolves the (domain, name) cell once; bumping is then one
   predictable branch and one store into a cache line the owning domain
   has exclusive use of. *)

type cell = int array

let cell name = find_cell name

let bump ?(by = 1) (c : cell) = if Registry.on () then c.(0) <- c.(0) + by

(* Reads merge every domain's cell and the retired total: two pool
   workers bumping the same name contribute to one exported total. *)
let get name =
  let value l =
    match Hashtbl.find_opt l.Registry.counters name with Some c -> c.(0) | None -> 0
  in
  let retired, ls = Slots.read Registry.cells in
  List.fold_left (fun acc (_, l) -> acc + value l) (value retired) ls

let snapshot () =
  let merged = (Registry.merged ()).Registry.counters in
  Hashtbl.fold (fun name (c : cell) acc -> (name, c.(0)) :: acc) merged [] |> List.sort compare

(* Unmerged view: which domain did the counting.  The scaling report
   uses it to show per-domain memo hit rates. *)
let snapshot_by_domain () =
  List.filter_map
    (fun (dom, l) ->
      let cs =
        Hashtbl.fold
          (fun name (c : cell) acc -> if c.(0) <> 0 then (name, c.(0)) :: acc else acc)
          l.Registry.counters []
      in
      if cs = [] then None else Some (dom, List.sort compare cs))
    (snd (Slots.read Registry.cells))
