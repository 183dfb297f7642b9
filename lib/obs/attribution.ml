type category = Task_run | Queue_wait | Lock_wait | Gc | Copy | Idle

let categories = [ Task_run; Queue_wait; Lock_wait; Gc; Copy; Idle ]

let category_name = function
  | Task_run -> "task-run"
  | Queue_wait -> "queue-wait"
  | Lock_wait -> "lock-wait"
  | Gc -> "gc"
  | Copy -> "copy"
  | Idle -> "idle"

let index_of = function
  | Task_run -> 0
  | Queue_wait -> 1
  | Lock_wait -> 2
  | Gc -> 3
  | Copy -> 4
  | Idle -> 5

let n_categories = 6

(* One cell per domain on the {!Slots} lifecycle (the producers never
   lock), and one atomic gate in front of everything.

   The per-category accumulators and the wall figure share one float
   array padded to [cell_slots] words (two cache lines including the
   header): every task completion writes these cells, and unpadded
   cells from different domains promoted next to each other in the
   major heap would false-share — precisely the contention this module
   exists to measure. *)
let enabled = Atomic.make false

let wall_slot = n_categories
let cell_slots = 15

let zero c = Array.fill c 0 cell_slots 0.0

let cells =
  Slots.create
    ~fresh:(fun () -> Array.make cell_slots 0.0)
    ~retired:(Array.make cell_slots 0.0)
    ~retire:(Array.map2 ( +. ))
    ()

let on () = Atomic.get enabled
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

let charge i us =
  let ok = Atomic.get enabled && Float.is_finite us && us > 0.0 in
  if ok then begin
    let c = Slots.get cells in
    c.(i) <- c.(i) +. us
  end;
  ok

(* A category charge also lands in the domain's running total, which a
   categorised span reads at both ends to charge only its self time. *)
let add cat us =
  if charge (index_of cat) us then begin
    let ctx = Flight.context () in
    ctx.Flight.charged_ns <- ctx.Flight.charged_ns + Float.to_int (Float.round (us *. 1e3))
  end

let add_wall us = ignore (charge wall_slot us)

let reset () =
  Slots.reset cells zero

type per_domain = {
  dom : int;
  wall_us : float;
  net : (category * float) list;
  other_us : float;
}

type report = {
  domains : per_domain list;
  total_wall_us : float;
  totals : (category * float) list;
  total_other_us : float;
  coverage : float;
}

(* Lock waits and engine acquires were charged as self time at record
   time, so task-run holds none of them.  GC is the one carve left: a
   process-wide GC time (runtime_events cannot attribute pauses to
   [Domain.self] ids) is spread over the domains in proportion to their
   task-run time — the allocation the pauses interrupted. *)
let report ?gc_us () =
  (* Cells persist across profiled runs (only as zeros after a reset);
     all-zero cells are domains that took no part in this run and would
     only pad the report.  The retired total rides along as domain -1:
     it counts in the totals but is not listed as a domain. *)
  let cs =
    let retired, cs = Slots.read cells in
    List.filter_map
      (fun (dom, c) ->
        if Array.exists (fun v -> v > 0.0) c then Some (dom, Array.copy c) else None)
      ((-1, retired) :: cs)
  in
  let task (_, c) = c.(index_of Task_run) in
  let total_task = List.fold_left (fun acc c -> acc +. task c) 0.0 cs in
  let recorded_gc = List.fold_left (fun acc (_, c) -> acc +. c.(index_of Gc)) 0.0 cs in
  let gc_total = match gc_us with Some g -> Float.max g recorded_gc | None -> recorded_gc in
  let all =
    List.map
      (fun ((dom, c) as dc) ->
        let gc_share =
          if gc_us = None then c.(index_of Gc)
          else if total_task <= 0.0 then 0.0
          else gc_total *. task dc /. total_task
        in
        let net_task = Float.max 0.0 (task dc -. gc_share) in
        let net =
          List.map
            (fun cat ->
              match cat with
              | Task_run -> (cat, net_task)
              | Gc -> (cat, gc_share)
              | _ -> (cat, c.(index_of cat)))
            categories
        in
        let named = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 net in
        {
          dom;
          wall_us = c.(wall_slot);
          net;
          other_us = Float.max 0.0 (c.(wall_slot) -. named);
        })
      cs
  in
  let total_wall_us = List.fold_left (fun acc d -> acc +. d.wall_us) 0.0 all in
  let totals =
    List.map
      (fun cat -> (cat, List.fold_left (fun acc d -> acc +. List.assoc cat d.net) 0.0 all))
      categories
  in
  let named = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 totals in
  let total_other_us = Float.max 0.0 (total_wall_us -. named) in
  let coverage =
    if total_wall_us <= 0.0 then 1.0 else Float.min 1.0 (named /. total_wall_us)
  in
  let domains = List.filter (fun d -> d.dom >= 0) all in
  { domains; total_wall_us; totals; total_other_us; coverage }
