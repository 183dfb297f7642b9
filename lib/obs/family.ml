type t = {
  f_name : string;
  f_label : string;
  mu : Mutex.t;
  series : (string, int ref) Hashtbl.t;
}

let registry_mu = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let create name ~label =
  Mutex.lock registry_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mu)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some t ->
          if t.f_label <> label then
            invalid_arg
              (Printf.sprintf
                 "Family.create: %S already registered with label %S (asked for %S)"
                 name t.f_label label);
          t
      | None ->
          let t =
            { f_name = name; f_label = label; mu = Mutex.create (); series = Hashtbl.create 8 }
          in
          Hashtbl.add registry name t;
          t)

let name t = t.f_name
let label t = t.f_label

let incr ?(by = 1) t v =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.series v with
  | Some cell -> cell := !cell + by
  | None -> Hashtbl.add t.series v (ref by));
  Mutex.unlock t.mu

let snapshot t =
  Mutex.lock t.mu;
  let items = Hashtbl.fold (fun k cell acc -> (k, !cell) :: acc) t.series [] in
  Mutex.unlock t.mu;
  List.sort compare items

let all () =
  Mutex.lock registry_mu;
  let fams = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
  Mutex.unlock registry_mu;
  List.sort (fun a b -> compare a.f_name b.f_name) fams
