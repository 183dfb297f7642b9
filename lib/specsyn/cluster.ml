(* Closeness weights: direct communication, a shared accessor; and the
   soft cap on a merged cluster's share of the total size, in (0,1]. *)
let w_comm = 1.0
let w_shared = 0.2
let balance_limit = 0.6

let size_proxy (node : Slif.Types.node) =
  match node.n_size with [] -> 1.0 | (_, v) :: _ -> max 1.0 v

(* Direct traffic between two nodes: bits x frequency over channels in
   either direction. *)
let traffic graph a b =
  let one src dst =
    List.fold_left
      (fun acc (c : Slif.Types.channel) ->
        match c.c_dst with
        | Slif.Types.Dnode d when d = dst ->
            acc +. (c.c_accfreq *. float_of_int c.c_bits)
        | _ -> acc)
      0.0
      (Slif.Graph.out_chans graph src)
  in
  one a b +. one b a

let shares_accessor graph a b =
  let srcs id =
    List.sort_uniq compare
      (List.map (fun (c : Slif.Types.channel) -> c.c_src) (Slif.Graph.in_chans graph id))
  in
  List.exists (fun s -> List.mem s (srcs b)) (srcs a)

let closeness graph a b =
  if a = b then 0.0
  else
    let comm = w_comm *. traffic graph a b in
    let shared = if shares_accessor graph a b then w_shared else 0.0 in
    comm +. shared

let clusters graph ~k =
  if k < 1 then invalid_arg "Cluster.clusters: k must be positive";
  let s = Slif.Graph.slif graph in
  let n = Array.length s.Slif.Types.nodes in
  let total_size =
    Array.fold_left (fun acc node -> acc +. size_proxy node) 0.0 s.Slif.Types.nodes
  in
  (* Union-find over nodes, with cluster sizes for the balance penalty. *)
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let cluster_size = Array.map size_proxy s.Slif.Types.nodes in
  (* Pairwise closeness matrix between cluster representatives, updated on
     merge by summation (group-average-free linkage keeps it O(n^2)). *)
  let close = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let c = closeness graph i j in
      close.(i).(j) <- c;
      close.(j).(i) <- c
    done
  done;
  let n_clusters = ref n in
  let continue_ = ref true in
  while !n_clusters > k && !continue_ do
    (* Best feasible pair of representatives. *)
    let best = ref None in
    for i = 0 to n - 1 do
      if find i = i then
        for j = i + 1 to n - 1 do
          if find j = j && close.(i).(j) > 0.0 then begin
            let merged_share = (cluster_size.(i) +. cluster_size.(j)) /. total_size in
            if merged_share <= balance_limit || !n_clusters <= k + 1 then
              match !best with
              | Some (_, _, c) when c >= close.(i).(j) -> ()
              | _ -> best := Some (i, j, close.(i).(j))
          end
        done
    done;
    match !best with
    | None -> continue_ := false
    | Some (i, j, _) ->
        Slif_obs.Counter.incr "search.cluster_merges";
        parent.(j) <- i;
        cluster_size.(i) <- cluster_size.(i) +. cluster_size.(j);
        for m = 0 to n - 1 do
          if m <> i then begin
            close.(i).(m) <- close.(i).(m) +. close.(j).(m);
            close.(m).(i) <- close.(i).(m)
          end
        done;
        decr n_clusters
  done;
  let buckets = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let root = find i in
    Hashtbl.replace buckets root (i :: Option.value (Hashtbl.find_opt buckets root) ~default:[])
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) buckets []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

let run ?replica ~k (problem : Search.problem) =
  Slif_obs.Span.with_ "search.clustering" ~args:[ ("k", string_of_int k) ]
  @@ fun () ->
  let graph = problem.Search.graph in
  let s = Slif.Graph.slif graph in
  let groups = clusters graph ~k in
  let part = Search.seed_partition s in
  (* Assign clusters largest-first onto the processor with the least
     accumulated size (memories only take all-variable clusters). *)
  let procs = Array.mapi (fun i _ -> (Slif.Partition.Cproc i, ref 0.0)) s.Slif.Types.procs in
  let group_size members =
    List.fold_left (fun acc id -> acc +. size_proxy s.Slif.Types.nodes.(id)) 0.0 members
  in
  let ordered =
    List.sort (fun a b -> compare (group_size b) (group_size a)) groups
  in
  List.iter
    (fun members ->
      let lightest =
        Array.fold_left
          (fun acc pair ->
            match acc with
            | None -> Some pair
            | Some (_, best_load) -> if !(snd pair) < !best_load then Some pair else acc)
          None procs
      in
      match lightest with
      | None -> ()
      | Some (target, load_ref) ->
          List.iter
            (fun id ->
              Slif.Partition.assign_node part ~node:id target;
              load_ref := !load_ref +. size_proxy s.Slif.Types.nodes.(id))
            members)
    ordered;
  { Search.part; cost = Engine.cost (Engine.start ?replica problem part); evaluated = 1 }
