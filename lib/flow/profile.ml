module Smap = Map.Make (String)

module Site = Map.Make (struct
  type t = int * int

  let compare (s1, a1) (s2, a2) = if s1 <> s2 then Int.compare s1 s2 else Int.compare a1 a2
end)

(* Entries by behavior, then by (site, arm) — a while loop's arm is 0 — so
   a lookup builds no key string, and none at all for a behavior without
   entries. *)
type t = { branches : float Site.t Smap.t; whiles : float Site.t Smap.t }

let empty = { branches = Smap.empty; whiles = Smap.empty }

let default_while_trips = 8.0

let branch_key ~behavior ~site ~arm = Printf.sprintf "%s.branch%d.arm%d" behavior site arm
let while_key ~behavior ~site = Printf.sprintf "%s.while%d" behavior site

let add map ~behavior key v =
  Smap.update behavior
    (fun sites -> Some (Site.add key v (Option.value sites ~default:Site.empty)))
    map

let find map ~behavior ~site ~arm =
  match Smap.find_opt behavior map with
  | None -> None
  | Some sites -> Site.find_opt (site, arm) sites

let set_branch t ~behavior ~site ~arm p =
  if p < 0.0 || p > 1.0 then invalid_arg "Profile.set_branch: probability out of range";
  { t with branches = add t.branches ~behavior (site, arm) p }

let set_while t ~behavior ~site ~trips =
  if trips < 0.0 then invalid_arg "Profile.set_while: negative trip count";
  { t with whiles = add t.whiles ~behavior (site, 0) trips }

let branch_prob t ~behavior ~site ~arm ~arms =
  match find t.branches ~behavior ~site ~arm with
  | Some p -> p
  | None -> 1.0 /. float_of_int (max 1 arms)

let while_trips t ~behavior ~site =
  match find t.whiles ~behavior ~site ~arm:0 with
  | Some n -> n
  | None -> default_while_trips

let of_string text =
  Slif_obs.Span.with_ "flow.profile.parse" @@ fun () ->
  let lines = String.split_on_char '\n' text in
  let parse (lineno, acc) line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let line = String.trim line in
    if line = "" then (lineno + 1, acc)
    else
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ key; value ] -> (
          let value =
            match float_of_string_opt value with
            | Some v -> v
            | None -> failwith (Printf.sprintf "profile line %d: bad number %S" lineno value)
          in
          match String.split_on_char '.' key with
          | [ behavior; site; arm ]
            when String.length site > 6 && String.sub site 0 6 = "branch"
                 && String.length arm > 3 && String.sub arm 0 3 = "arm" -> (
              match
                ( int_of_string_opt (String.sub site 6 (String.length site - 6)),
                  int_of_string_opt (String.sub arm 3 (String.length arm - 3)) )
              with
              | Some site, Some arm ->
                  (lineno + 1, set_branch acc ~behavior ~site ~arm value)
              | _ -> failwith (Printf.sprintf "profile line %d: bad site %S" lineno key))
          | [ behavior; site ]
            when String.length site > 5 && String.sub site 0 5 = "while" -> (
              match int_of_string_opt (String.sub site 5 (String.length site - 5)) with
              | Some site -> (lineno + 1, set_while acc ~behavior ~site ~trips:value)
              | None -> failwith (Printf.sprintf "profile line %d: bad site %S" lineno key))
          | _ -> failwith (Printf.sprintf "profile line %d: bad key %S" lineno key))
      | _ -> failwith (Printf.sprintf "profile line %d: expected 'key value'" lineno)
  in
  snd (List.fold_left parse (1, empty) lines)

(* One line per entry, branches then whiles, each sorted by key text. *)
let to_string t =
  let lines map key =
    Smap.fold
      (fun behavior sites acc ->
        Site.fold (fun (site, arm) v acc -> (key ~behavior ~site ~arm, v) :: acc) sites acc)
      map []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let whiles ~behavior ~site ~arm:_ = while_key ~behavior ~site in
  let buf = Buffer.create 256 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s %g\n" k v))
    (lines t.branches branch_key @ lines t.whiles whiles);
  Buffer.contents buf
