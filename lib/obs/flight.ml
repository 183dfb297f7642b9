(* The span store: one fixed-size ring of compact records per domain,
   written on every span, event and counter sample whether or not the
   registry is armed.  It is the only place spans live: the CLI's
   --trace, the profiler's per-run traces and the daemon's black box
   all read this window.  When a request turns out slow or failing
   *after the fact*, its spans are still here and can be retained.
   A ring lives as long as its domain plus the next 16 domain exits;
   then it is dropped and only its counts remain.

   Hot-path cost budget: one atomic load (the [enabled] switch), one
   atomic fetch-and-add per span id, and a handful of array stores into
   the calling domain's ring.  No locks, no allocation (the record is
   spread over parallel arrays), no formatting.

   Readers (exports, the daemon's [dump]/[traces] ops, SIGQUIT dumps)
   merge the rings racily: a live writer may overwrite the oldest slots
   while a snapshot walks them, so a reader can see a torn oldest
   record.  That is the black-box trade — the records of a completed
   request are only at risk once the ring has wrapped past them. *)

type kind = Span | Event | Counter

type record = {
  fr_kind : kind;
  fr_name : string;
  fr_ts_ns : int;  (* absolute monotonic clock, ns *)
  fr_dur_ns : int;  (* 0 for events; the sampled value for counters *)
  fr_id : int;  (* span id; 0 for events and counters *)
  fr_parent : int;  (* parent span id; 0 = root *)
  fr_dom : int;
  fr_trace : string;  (* ambient trace id; "" = none *)
  fr_args : (string * string) list;
}

let default_capacity = 4096
let capacity = Atomic.make default_capacity

(* On by default — the whole point is that the window exists before
   anyone asks for it.  [disable] exists for the telemetry-off ablation
   baseline and for tests that need a quiet ring. *)
let enabled = Atomic.make true

let on () = Atomic.get enabled
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

type context = { mutable trace : string option; mutable span : int; mutable charged_ns : int }

(* One ring per domain, parallel arrays so a record is a few plain
   stores.  [rg_head] counts records ever written; the live window is
   the last [min head cap] slots.  Only the owning domain writes, and
   the owning domain's causality context rides along in [rg_ctx]. *)
type ring = {
  rg_ctx : context;
  mutable rg_cap : int;
  mutable rg_head : int;
  mutable rg_kinds : Bytes.t;
  mutable rg_names : string array;
  mutable rg_ts : int array;
  mutable rg_durs : int array;
  mutable rg_ids : int array;
  mutable rg_parents : int array;
  mutable rg_traces : string array;
  mutable rg_args : (string * string) list array;
}

let alloc_slots r cap =
  r.rg_cap <- cap;
  r.rg_head <- 0;
  r.rg_kinds <- Bytes.make cap '\000';
  r.rg_names <- Array.make cap "";
  r.rg_ts <- Array.make cap 0;
  r.rg_durs <- Array.make cap 0;
  r.rg_ids <- Array.make cap 0;
  r.rg_parents <- Array.make cap 0;
  r.rg_traces <- Array.make cap "";
  r.rg_args <- Array.make cap []

(* An exited domain's ring that never wrapped keeps only its written
   slots: a pool worker that lived for one sweep wrote a few hundred
   records into 4096 slots.  Slot [n] of a ring that never wrapped is
   record [n], so the window reads the same at the smaller capacity. *)
let shrink r =
  if r.rg_head < r.rg_cap then begin
    let n = max 1 r.rg_head in
    r.rg_cap <- n;
    r.rg_kinds <- Bytes.sub r.rg_kinds 0 n;
    r.rg_names <- Array.sub r.rg_names 0 n;
    r.rg_ts <- Array.sub r.rg_ts 0 n;
    r.rg_durs <- Array.sub r.rg_durs 0 n;
    r.rg_ids <- Array.sub r.rg_ids 0 n;
    r.rg_parents <- Array.sub r.rg_parents 0 n;
    r.rg_traces <- Array.sub r.rg_traces 0 n;
    r.rg_args <- Array.sub r.rg_args 0 n
  end

(* Rings follow the {!Slots} lifecycle: an exited domain's ring is
   shrunk and stays readable until 16 more domains have exited, then it
   is dropped; its records and drops stay in the totals. *)
type retired = { records : int; dropped : int }

let overwritten r = max 0 (r.rg_head - r.rg_cap)

let rings =
  Slots.create ~on_exit:shrink
    ~fresh:(fun () ->
      let r =
        {
          rg_ctx = { trace = None; span = 0; charged_ns = 0 };
          rg_cap = 0;
          rg_head = 0;
          rg_kinds = Bytes.empty;
          rg_names = [||];
          rg_ts = [||];
          rg_durs = [||];
          rg_ids = [||];
          rg_parents = [||];
          rg_traces = [||];
          rg_args = [||];
        }
      in
      alloc_slots r (Atomic.get capacity);
      r)
    ~retired:{ records = 0; dropped = 0 }
    ~retire:(fun t r ->
      { records = t.records + r.rg_head; dropped = t.dropped + overwritten r })
    ()

let ring () = Slots.get rings

(* --- Causality context ------------------------------------------------------ *)

(* The ambient request identity and innermost open span of the calling
   domain.  Independent of [on ()]: the event log tags lines with the
   trace id even when the ring is off. *)
let context () = (ring ()).rg_ctx
let current_trace () = (context ()).trace
let current_span () = (context ()).span

let with_causality ?trace ?parent f =
  let c = context () in
  let saved_trace = c.trace and saved_span = c.span in
  (match trace with Some _ -> c.trace <- trace | None -> ());
  (match parent with Some p -> c.span <- p | None -> ());
  Fun.protect
    ~finally:(fun () ->
      c.trace <- saved_trace;
      c.span <- saved_span)
    f

let with_trace id f = with_causality ~trace:id f

(* --- Writes ----------------------------------------------------------------- *)

(* Span ids are process-unique: the dispatch side mints one and the
   executing side (possibly another domain) parents under it, so one
   atomic counter is the simplest id space that cannot collide. *)
let ids = Atomic.make 1

let next_id () = Atomic.fetch_and_add ids 1

let write r kind ~name ~ts_ns ~dur_ns ~id ~parent ~trace ~args =
  let i = r.rg_head mod r.rg_cap in
  Bytes.unsafe_set r.rg_kinds i
    (match kind with Span -> '\000' | Event -> '\001' | Counter -> '\002');
  r.rg_names.(i) <- name;
  r.rg_ts.(i) <- ts_ns;
  r.rg_durs.(i) <- dur_ns;
  r.rg_ids.(i) <- id;
  r.rg_parents.(i) <- parent;
  r.rg_traces.(i) <- trace;
  r.rg_args.(i) <- args;
  r.rg_head <- r.rg_head + 1

let record_span ?(trace = "") ?(args = []) ~id ~parent ~name ~t0_ns ~dur_ns () =
  if Atomic.get enabled then
    write (ring ()) Span ~name ~ts_ns:t0_ns ~dur_ns ~id ~parent ~trace ~args

(* Events and counter samples take their causality from the calling
   domain's ambient context, so callers need no plumbing. *)
let record_ambient kind name ~dur_ns =
  if Atomic.get enabled then begin
    let r = ring () in
    let trace = Option.value r.rg_ctx.trace ~default:"" in
    write r kind ~name
      ~ts_ns:(Int64.to_int (Clock.now_ns ()))
      ~dur_ns ~id:0 ~parent:r.rg_ctx.span ~trace ~args:[]
  end

let record_event ?(dur_ns = 0) name = record_ambient Event name ~dur_ns
let record_counter name value = record_ambient Counter name ~dur_ns:value

(* --- Stats ----------------------------------------------------------------- *)

type ring_stat = {
  rs_dom : int;
  rs_capacity : int;
  rs_records : int;  (* ever written *)
  rs_dropped : int;  (* overwritten by the ring wrapping *)
  rs_occupancy : int;  (* live records in the window *)
}

let stat_of (dom, r) =
  {
    rs_dom = dom;
    rs_capacity = r.rg_cap;
    rs_records = r.rg_head;
    rs_dropped = overwritten r;
    rs_occupancy = min r.rg_head r.rg_cap;
  }

let ring_stats () = List.map stat_of (snd (Slots.read rings))

let total retired count =
  let t, rs = Slots.read rings in
  List.fold_left (fun acc (_, r) -> acc + count r) (retired t) rs

let records_total () = total (fun t -> t.records) (fun r -> r.rg_head)
let dropped_total () = total (fun t -> t.dropped) overwritten

(* --- Reads ----------------------------------------------------------------- *)

let kind_of_tag = function '\000' -> Span | '\001' -> Event | _ -> Counter

let ring_records acc (dom, r) =
  let head = r.rg_head in
  let lo = max 0 (head - r.rg_cap) in
  let out = ref acc in
  for n = head - 1 downto lo do
    let i = n mod r.rg_cap in
    out :=
      {
        fr_kind = kind_of_tag (Bytes.get r.rg_kinds i);
        fr_name = r.rg_names.(i);
        fr_ts_ns = r.rg_ts.(i);
        fr_dur_ns = r.rg_durs.(i);
        fr_id = r.rg_ids.(i);
        fr_parent = r.rg_parents.(i);
        fr_dom = dom;
        fr_trace = r.rg_traces.(i);
        fr_args = r.rg_args.(i);
      }
      :: !out
  done;
  !out

let snapshot () =
  List.fold_left ring_records [] (snd (Slots.read rings))
  |> List.stable_sort (fun a b -> compare a.fr_ts_ns b.fr_ts_ns)

let by_trace trace = List.filter (fun r -> r.fr_trace = trace) (snapshot ())

(* --- Chrome trace_event export --------------------------------------------- *)

(* The window as a Chrome/Perfetto trace: spans are complete events on
   their domain's lane, events are instants, counter samples are
   counter tracks (one per name).  Timestamps are rebased to the
   window's oldest record so the view opens at zero. *)
let to_chrome () =
  let records = snapshot () in
  let t0 = match records with [] -> 0 | r :: _ -> r.fr_ts_ns in
  let json_of r =
    let ts = Json.Float (float_of_int (r.fr_ts_ns - t0) /. 1e3) in
    let base ph args =
      [
        ("name", Json.String r.fr_name);
        ("ph", Json.String ph);
        ("ts", ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int r.fr_dom);
        ("args", Json.Obj args);
      ]
    in
    let causal =
      [ ("id", Json.Int r.fr_id); ("parent", Json.Int r.fr_parent) ]
      @ (if r.fr_trace = "" then [] else [ ("trace_id", Json.String r.fr_trace) ])
      @ List.map (fun (k, v) -> (k, Json.String v)) r.fr_args
    in
    match r.fr_kind with
    | Span ->
        Json.Obj (base "X" causal @ [ ("dur", Json.Float (float_of_int r.fr_dur_ns /. 1e3)) ])
    | Event -> Json.Obj (base "i" causal @ [ ("s", Json.String "t") ])
    | Counter -> Json.Obj (base "C" [ ("value", Json.Int r.fr_dur_ns) ])
  in
  let process_name =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String "slif") ]);
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map json_of records @ [ process_name ]));
      ("displayTimeUnit", Json.String "ms");
      ("flightRecords", Json.Int (records_total ()));
      ("flightDropped", Json.Int (dropped_total ()));
    ]

(* --- Maintenance ------------------------------------------------------------ *)

(* Resize every ring (new rings pick the capacity up at creation).
   Meant for startup or quiescent points: a concurrent writer could
   race the swap and lose a record, never crash. *)
let set_capacity n =
  if n < 1 then invalid_arg "Flight.set_capacity";
  Atomic.set capacity n;
  List.iter (fun (_, r) -> alloc_slots r n) (snd (Slots.read rings))

(* Emptying drops the references the slots hold too, so a reset ring
   keeps no old names, trace ids or args alive. *)
let reset () =
  Slots.reset rings (fun r ->
      r.rg_head <- 0;
      Array.fill r.rg_names 0 r.rg_cap "";
      Array.fill r.rg_traces 0 r.rg_cap "";
      Array.fill r.rg_args 0 r.rg_cap [])
