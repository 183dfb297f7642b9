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

(* One [local] per domain that ever probed, handed out through
   domain-local storage so the hot paths never lock.  The cells are also
   kept on a global list (guarded by [locals_mu]) so exporters can merge
   them; a cell outlives its domain, preserving the data of joined pool
   workers.  [reset] zeroes the cells in place rather than dropping them —
   a live domain keeps writing into its registered cell. *)
let locals_mu = Mutex.create ()
let locals : local list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let l =
        { dom = (Domain.self () :> int); counters = Hashtbl.create 64; hists = Hashtbl.create 64 }
      in
      Mutex.lock locals_mu;
      locals := l :: !locals;
      Mutex.unlock locals_mu;
      l)

let local () = Domain.DLS.get key

let fold_locals f acc =
  Mutex.lock locals_mu;
  let ls = !locals in
  Mutex.unlock locals_mu;
  (* Ascending domain id: a deterministic merge order for exporters. *)
  List.fold_left f acc (List.sort (fun a b -> compare a.dom b.dom) ls)

let on () = Atomic.get enabled

let enable () =
  if not (Atomic.get enabled) then begin
    Atomic.set enabled true;
    if !epoch = 0L then epoch := Clock.now_ns ()
  end

let disable () = Atomic.set enabled false

let reset () =
  fold_locals
    (fun () l ->
      (* Counter cells are zeroed in place, not dropped: hot-path probes
         (Counter.cell) cache a cell across resets, and a dropped cell
         would silently swallow their writes after the next profiled run
         re-arms the registry. *)
      Hashtbl.iter (fun _ c -> Array.fill c 0 cell_words 0) l.counters;
      Hashtbl.reset l.hists)
    ();
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
