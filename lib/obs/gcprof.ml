type counts = {
  minor_collections : int;
  major_collections : int;
  compactions : int;
  forced_major_collections : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
}

let zero_counts =
  {
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
    forced_major_collections = 0;
    minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
  }

let add_counts a b =
  {
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
    compactions = a.compactions + b.compactions;
    forced_major_collections = a.forced_major_collections + b.forced_major_collections;
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    major_words = a.major_words +. b.major_words;
  }

(* --- Per-domain quick_stat deltas ----------------------------------------- *)

type cell = { mutable base : Gc.stat option; mutable acc : counts }

let cells =
  Slots.create
    ~fresh:(fun () -> { base = None; acc = zero_counts })
    ~retired:zero_counts
    ~retire:(fun total c -> add_counts total c.acc)
    ()

(* Deltas of a domain's own monotonic counters; clamped so a counter
   surprise (e.g. a ravel across Gc.counters internals) can never make
   the accumulated pressure go backwards. *)
let delta (b : Gc.stat) (q : Gc.stat) =
  let di x y = max 0 (y - x) in
  let df x y = Float.max 0.0 (y -. x) in
  {
    minor_collections = di b.minor_collections q.minor_collections;
    major_collections = di b.major_collections q.major_collections;
    compactions = di b.compactions q.compactions;
    forced_major_collections = di b.forced_major_collections q.forced_major_collections;
    minor_words = df b.minor_words q.minor_words;
    promoted_words = df b.promoted_words q.promoted_words;
    major_words = df b.major_words q.major_words;
  }

let sample () =
  let c = Slots.get cells in
  let q = Gc.quick_stat () in
  (match c.base with
  | Some b -> c.acc <- add_counts c.acc (delta b q)
  | None -> ());
  c.base <- Some q

let counts () =
  let retired, cs = Slots.read cells in
  List.fold_left (fun acc (_, c) -> add_counts acc c.acc) retired cs

let per_domain () = List.map (fun (dom, c) -> (dom, c.acc)) (snd (Slots.read cells))

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* --- Pause timing over runtime_events -------------------------------------- *)

(* Ring cells are keyed by the runtime's domain slot index (what the
   event stream reports), not [Domain.self]: slots are reused when
   domains come and go, so pause time is only meaningful process-wide
   and per-slot.  Nesting depth folds the runtime's nested phase events
   (a minor collection emits EV_MINOR around EV_MINOR_* sub-phases) into
   one top-level interval, so nothing is double counted. *)
type ring = { mutable depth : int; mutable t0 : int64; mutable total_ns : int64 }

let timing = Atomic.make false
let poll_mu = Mutex.create ()
let rings : (int, ring) Hashtbl.t = Hashtbl.create 8
let cursor : Runtime_events.cursor option ref = ref None
let lost = ref 0

let ring_cell id =
  match Hashtbl.find_opt rings id with
  | Some r -> r
  | None ->
      let r = { depth = 0; t0 = 0L; total_ns = 0L } in
      Hashtbl.add rings id r;
      r

let callbacks =
  lazy
    (let ts_ns ts = Runtime_events.Timestamp.to_int64 ts in
     let runtime_begin id ts _phase =
       let r = ring_cell id in
       if r.depth = 0 then r.t0 <- ts_ns ts;
       r.depth <- r.depth + 1
     in
     let runtime_end id ts _phase =
       let r = ring_cell id in
       if r.depth > 0 then begin
         r.depth <- r.depth - 1;
         if r.depth = 0 then r.total_ns <- Int64.add r.total_ns (Int64.sub (ts_ns ts) r.t0)
       end
     in
     let lost_events _id n = lost := !lost + n in
     Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ())

let start_timing () =
  if Atomic.get timing then true
  else begin
    Mutex.lock poll_mu;
    let ok =
      if Atomic.get timing then true
      else
        try
          (* Keep the ring file out of the working directory unless the
             user already chose a location. *)
          if Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" = None then
            Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" (Filename.get_temp_dir_name ());
          Runtime_events.start ();
          cursor := Some (Runtime_events.create_cursor None);
          Atomic.set timing true;
          true
        with Failure _ | Invalid_argument _ | Sys_error _ | Unix.Unix_error _ -> false
    in
    Mutex.unlock poll_mu;
    ok
  end

let poll () =
  if Atomic.get timing then begin
    Mutex.lock poll_mu;
    (match !cursor with
    | Some c -> (
        try ignore (Runtime_events.read_poll c (Lazy.force callbacks) None)
        with Failure _ -> ())
    | None -> ());
    Mutex.unlock poll_mu
  end

let gc_time_us () =
  Mutex.lock poll_mu;
  let total = Hashtbl.fold (fun _ r acc -> Int64.add acc r.total_ns) rings 0L in
  Mutex.unlock poll_mu;
  Int64.to_float total /. 1e3

let lost_events () = !lost

let reset () =
  Slots.reset cells (fun c -> c.acc <- zero_counts);
  Mutex.lock poll_mu;
  Hashtbl.iter
    (fun _ r ->
      r.total_ns <- 0L;
      r.depth <- 0)
    rings;
  lost := 0;
  Mutex.unlock poll_mu
