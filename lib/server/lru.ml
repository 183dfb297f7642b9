type 'a entry = { value : 'a; mutable stamp : int }

type 'a t = {
  tbl : (string, 'a entry) Hashtbl.t;
  cap : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be at least 1";
  { tbl = Hashtbl.create (2 * capacity); cap = capacity; tick = 0; hits = 0; misses = 0 }

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some e ->
      t.hits <- t.hits + 1;
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

type stats = { size : int; capacity : int; hits : int; misses : int; keys : string list }

let stats t =
  {
    size = Hashtbl.length t.tbl;
    capacity = t.cap;
    hits = t.hits;
    misses = t.misses;
    keys =
      Hashtbl.fold (fun k e acc -> (k, e.stamp) :: acc) t.tbl []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.map fst;
  }
