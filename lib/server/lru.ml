type 'a entry = { value : 'a; mutable stamp : int }

type 'a t = {
  tbl : (string, 'a entry) Hashtbl.t;
  cap : int;
  mutable tick : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be at least 1";
  { tbl = Hashtbl.create (2 * capacity); cap = capacity; tick = 0 }

let capacity t = t.cap
let size t = Hashtbl.length t.tbl

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some e ->
      touch t e;
      Some e.value

let evict_oldest t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, stamp) when stamp <= e.stamp -> ()
      | _ -> victim := Some (k, e.stamp))
    t.tbl;
  match !victim with Some (k, _) -> Hashtbl.remove t.tbl k | None -> ()

let add t key value =
  (match Hashtbl.find_opt t.tbl key with
  | Some _ -> Hashtbl.remove t.tbl key
  | None -> if Hashtbl.length t.tbl >= t.cap then evict_oldest t);
  let e = { value; stamp = 0 } in
  touch t e;
  Hashtbl.replace t.tbl key e

let remove t key = Hashtbl.remove t.tbl key

let keys t =
  Hashtbl.fold (fun k e acc -> (k, e.stamp) :: acc) t.tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map fst

(* --- Sharded, domain-safe wrapper ------------------------------------------- *)

module Sharded = struct
  (* The plain single-domain implementation above, captured before this
     module shadows the names. *)
  let plain_create = create
  let plain_find = find
  let plain_add = add
  let plain_remove = remove
  let plain_size = size
  let plain_keys = keys
  let plain_capacity = capacity

  type 'a shard = {
    core : 'a t;
    lock : Slif_obs.Lockprof.t;
    mutable hits : int;  (* under [lock]; exact across domains *)
    mutable misses : int;
  }

  type 'a t = { shards : 'a shard array }

  let create ?(shards = 8) ~capacity () =
    if shards < 1 then invalid_arg "Lru.Sharded.create: shards must be at least 1";
    if capacity < 1 then invalid_arg "Lru.Sharded.create: capacity must be at least 1";
    (* Round the capacity up so every shard holds at least one entry;
       the reported total is therefore shards * per-shard, >= requested. *)
    let per_shard = max 1 ((capacity + shards - 1) / shards) in
    {
      shards =
        Array.init shards (fun i ->
            {
              core = plain_create ~capacity:per_shard;
              lock = Slif_obs.Lockprof.create (Printf.sprintf "server.lru.%d" i);
              hits = 0;
              misses = 0;
            });
    }

  (* Routing is a pure function of the key bytes ([Hashtbl.hash] is
     deterministic on strings), so a key lives in exactly one shard for
     the daemon's whole life — the differential tests count on it. *)
  let shard_of_key t key = Hashtbl.hash key mod Array.length t.shards

  let locked s f =
    Slif_obs.Lockprof.lock s.lock;
    Fun.protect ~finally:(fun () -> Slif_obs.Lockprof.unlock s.lock) (fun () -> f s)

  let with_shard t key f = locked t.shards.(shard_of_key t key) f

  let find t key =
    with_shard t key (fun s ->
        match plain_find s.core key with
        | Some v ->
            s.hits <- s.hits + 1;
            Some v
        | None ->
            s.misses <- s.misses + 1;
            None)

  let add t key value = with_shard t key (fun s -> plain_add s.core key value)
  let remove t key = with_shard t key (fun s -> plain_remove s.core key)

  let keys t =
    Array.to_list t.shards |> List.concat_map (fun s -> locked s (fun s -> plain_keys s.core))

  type shard_stat = { sh_index : int; sh_size : int; sh_capacity : int; sh_hits : int; sh_misses : int }

  let shard_stats t =
    Array.to_list
      (Array.mapi
         (fun i s ->
           locked s (fun s ->
               {
                 sh_index = i;
                 sh_size = plain_size s.core;
                 sh_capacity = plain_capacity s.core;
                 sh_hits = s.hits;
                 sh_misses = s.misses;
               }))
         t.shards)
end
