type span_event = {
  ev_name : string;
  ev_ts_ns : int64;
  ev_dur_ns : int64;
  ev_depth : int;
  ev_dom : int;
  ev_args : (string * string) list;
}

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;  (* log-spaced; geometry lives in Histogram *)
}

(* Counter cells are padded out to [cell_words] machine words (two 64-byte
   cache lines including the array header) with the live value in slot 0.
   Each cell is written by exactly one domain — its owner — but cells from
   different domains end up adjacent in the major heap once promoted, and
   an unpadded cell would then share a cache line with a neighbour that
   another domain hammers.  The padding buys true share-nothing counting:
   a domain bumping its hot cell never invalidates another domain's line. *)
let cell_words = 15

let new_cell () : int array = Array.make cell_words 0

type local = {
  dom : int;
  counters : (string, int array) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

(* The master switch is the only cell every probe reads; an [Atomic] load
   keeps the disabled-mode cost at one load and branch while staying
   race-free under domains. *)
let enabled = Atomic.make false
let epoch = ref 0L

let new_local dom = { dom; counters = Hashtbl.create 64; hists = Hashtbl.create 64 }

(* Counter cells are zeroed in place, not dropped: hot-path probes
   (Counter.cell) cache a cell across resets, and a dropped cell would
   silently swallow their writes after the next profiled run re-arms
   the registry. *)
let zero l =
  Hashtbl.iter (fun _ c -> Array.fill c 0 cell_words 0) l.counters;
  Hashtbl.reset l.hists

let absorb_hist into h =
  into.h_count <- into.h_count + h.h_count;
  into.h_sum <- into.h_sum +. h.h_sum;
  into.h_min <- Float.min into.h_min h.h_min;
  into.h_max <- Float.max into.h_max h.h_max;
  Array.iteri (fun i n -> into.h_buckets.(i) <- into.h_buckets.(i) + n) h.h_buckets

let absorb into l =
  Hashtbl.iter
    (fun name c ->
      if c.(0) <> 0 then
        match Hashtbl.find_opt into.counters name with
        | Some d -> d.(0) <- d.(0) + c.(0)
        | None -> Hashtbl.add into.counters name (Array.copy c))
    l.counters;
  Hashtbl.iter
    (fun name h ->
      match Hashtbl.find_opt into.hists name with
      | Some acc -> absorb_hist acc h
      | None -> Hashtbl.add into.hists name { h with h_buckets = Array.copy h.h_buckets })
    l.hists

let merge ls =
  let m = new_local (-1) in
  List.iter (absorb m) ls;
  m

(* One [local] per live domain (plus the latest exits), reached through
   DLS so the hot paths never lock; a retired cell's contents move into
   the retired total, [dom] -1. *)
let cells =
  Slots.create
    ~fresh:(fun () -> new_local (Domain.self () :> int))
    ~retired:(new_local (-1))
    ~retire:(fun total l -> merge [ total; l ])
    ()

let local () = Slots.get cells

let on () = Atomic.get enabled

let enable () =
  if not (Atomic.get enabled) then begin
    Atomic.set enabled true;
    if !epoch = 0L then epoch := Clock.now_ns ()
  end

let disable () = Atomic.set enabled false

let reset () =
  Slots.reset cells zero;
  Flight.reset ();
  epoch := Clock.now_ns ()

let epoch_ns () = !epoch

(* A span timed by the caller goes into the one span store, under the
   calling domain's ambient trace and open span. *)
let push_event (_ : local) ev =
  Flight.record_span
    ?trace:(Flight.current_trace ())
    ~args:ev.ev_args ~id:(Flight.next_id ()) ~parent:(Flight.current_span ())
    ~name:ev.ev_name
    ~t0_ns:(Int64.to_int (Int64.add !epoch ev.ev_ts_ns))
    ~dur_ns:(Int64.to_int ev.ev_dur_ns) ()

let set_max_events = Flight.set_capacity

let merged () =
  let retired, ls = Slots.read cells in
  merge (retired :: List.map snd ls)
