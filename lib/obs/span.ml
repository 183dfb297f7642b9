(* One clock pair per interval, fanned out to the sinks the caller
   found armed.  The open-span id and the charge total live in the
   calling domain's context, so spans opened inside pool workers never
   race.  [fl = false]: no ring record, and spans opened inside keep
   their parent. *)
let scoped ?args ?hist ~fl ~reg ~cat name f =
  let c = Flight.context () in
  let charged0 = c.Flight.charged_ns in
  let parent = c.Flight.span in
  let id = if fl then Flight.next_id () else 0 in
  if fl then c.Flight.span <- id;
  let t0 = Int64.to_int (Clock.now_ns ()) in
  let finish () =
    let dur = Int64.to_int (Clock.now_ns ()) - t0 in
    if fl then begin
      c.Flight.span <- parent;
      (* Unarmed, a ring slot must not keep the caller's [args] alive
         until the ring laps it. *)
      Flight.record_span ?trace:c.Flight.trace
        ?args:(if reg then args else None)
        ~id ~parent ~name ~t0_ns:t0 ~dur_ns:dur ()
    end;
    if reg then begin
      let h = match hist with Some h -> h | None -> "span." ^ name in
      Histogram.observe h (float_of_int dur /. 1e3)
    end;
    match cat with
    | Some cat ->
        let self = dur - (c.Flight.charged_ns - charged0) in
        Attribution.add cat (float_of_int self /. 1e3)
    | None -> ()
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let with_ ?args ?category name f =
  let fl = Flight.on () and reg = Registry.on () in
  let cat = match category with Some _ when Attribution.on () -> category | _ -> None in
  if fl || reg || cat <> None then scoped ?args ~fl ~reg ~cat name f else f ()

let timed ~hist ~category f =
  let reg = Registry.on () and att = Attribution.on () in
  if reg || att then
    scoped ~hist ~fl:false ~reg ~cat:(if att then Some category else None) hist f
  else f ()

let record ?trace ?id ?hist ~parent ~t0_ns name =
  let dur = Int64.to_int (Clock.now_ns ()) - t0_ns in
  if Flight.on () then begin
    let id = match id with Some id -> id | None -> Flight.next_id () in
    Flight.record_span ?trace ~id ~parent ~name ~t0_ns ~dur_ns:dur ()
  end;
  (match hist with
  | Some h when Registry.on () -> Histogram.observe h (float_of_int dur /. 1e3)
  | _ -> ());
  dur
