let enabled = Atomic.make false

type t = {
  name : string;
  category : Attribution.category;
  mu : Mutex.t;
  wait : Histogram.t;
  hold : Histogram.t;
  mutable acquisitions : int;
  mutable contended : int;
  (* Acquisition timestamp of the current holder; [nan] when the holder
     was not profiled (so a disable between lock and unlock never records
     a bogus hold).  Only ever written while the mutex is held. *)
  mutable acquired_at : float;
}

let blank name category =
  {
    name;
    category;
    mu = Mutex.create ();
    wait = Histogram.create ();
    hold = Histogram.create ();
    acquisitions = 0;
    contended = 0;
    acquired_at = Float.nan;
  }

(* Live locks, and per name the counts of the released ones: a
   transient pool's queue lock folds into its name's row on release
   instead of staying registered forever. *)
let locks_mu = Mutex.create ()
let locks : t list ref = ref []
let retired : (string, t) Hashtbl.t = Hashtbl.create 8

let create ?(category = Attribution.Lock_wait) name =
  let t = blank name category in
  Mutex.protect locks_mu (fun () -> locks := t :: !locks);
  t

(* Add [t]'s counts to [tbl]'s row for its name. *)
let absorb tbl t =
  let row =
    match Hashtbl.find_opt tbl t.name with
    | Some row -> row
    | None ->
        let row = blank t.name t.category in
        Hashtbl.add tbl t.name row;
        row
  in
  row.acquisitions <- row.acquisitions + t.acquisitions;
  row.contended <- row.contended + t.contended;
  Histogram.absorb row.wait t.wait;
  Histogram.absorb row.hold t.hold

let release t =
  Mutex.protect locks_mu (fun () ->
      if List.memq t !locks then begin
        locks := List.filter (fun l -> l != t) !locks;
        absorb retired t
      end)

let set_enabled b = Atomic.set enabled b
(* The stat cells are only ever mutated by the thread currently holding
   [t.mu]: the wait is recorded right after acquisition, the hold right
   before release.  The profiling therefore needs no lock of its own. *)
let lock t =
  if not (Atomic.get enabled) then Mutex.lock t.mu
  else if Mutex.try_lock t.mu then begin
    t.acquisitions <- t.acquisitions + 1;
    Histogram.record t.wait 0.0;
    t.acquired_at <- Clock.now_us ()
  end
  else begin
    let t0 = Clock.now_us () in
    Mutex.lock t.mu;
    let t1 = Clock.now_us () in
    let waited = t1 -. t0 in
    t.acquisitions <- t.acquisitions + 1;
    t.contended <- t.contended + 1;
    Histogram.record t.wait waited;
    Attribution.add t.category waited;
    t.acquired_at <- t1
  end

let unlock t =
  if Atomic.get enabled && Float.is_finite t.acquired_at then
    Histogram.record t.hold (Clock.now_us () -. t.acquired_at);
  t.acquired_at <- Float.nan;
  Mutex.unlock t.mu

(* Close the hold segment before parking, reopen it on wake: blocked
   time is idle, never part of the hold histogram. *)
let wait t cond =
  if not (Atomic.get enabled) then Condition.wait cond t.mu
  else begin
    let t0 = Clock.now_us () in
    if Float.is_finite t.acquired_at then Histogram.record t.hold (t0 -. t.acquired_at);
    t.acquired_at <- Float.nan;
    Condition.wait cond t.mu;
    let t1 = Clock.now_us () in
    Attribution.add Attribution.Idle (t1 -. t0);
    if Atomic.get enabled then t.acquired_at <- t1
  end

type stat = {
  s_name : string;
  acquisitions : int;
  contended : int;
  wait_us : Histogram.summary;
  wait_quantiles : Histogram.quantiles;
  hold_us : Histogram.summary;
  hold_quantiles : Histogram.quantiles;
}

let stats t =
  {
    s_name = t.name;
    acquisitions = t.acquisitions;
    contended = t.contended;
    wait_us = Histogram.stats t.wait;
    wait_quantiles = Histogram.quantile_summary t.wait;
    hold_us = Histogram.stats t.hold;
    hold_quantiles = Histogram.quantile_summary t.hold;
  }

let all () =
  Mutex.protect locks_mu (fun () ->
      let rows = Hashtbl.create 16 in
      Hashtbl.iter (fun _ t -> absorb rows t) retired;
      List.iter (absorb rows) !locks;
      Hashtbl.fold (fun _ t acc -> stats t :: acc) rows [])
  |> List.sort (fun a b -> compare a.s_name b.s_name)

let reset () =
  Mutex.protect locks_mu (fun () ->
      Hashtbl.reset retired;
      List.iter
        (fun (t : t) ->
          t.acquisitions <- 0;
          t.contended <- 0;
          Histogram.clear t.wait;
          Histogram.clear t.hold)
        !locks)
