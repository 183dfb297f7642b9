let with_ ?args name f =
  let fl = Flight.on () in
  let reg = Registry.on () in
  if not (fl || reg) then f ()
  else begin
    (* The open-span id lives in the calling domain's context, so spans
       opened inside pool workers never race.  The ring write happens
       whether or not the registry is armed — that is the always-on
       black box.  Arming adds the duration histogram and keeps [args]:
       unarmed, a ring slot must not keep the caller's heap data alive
       until the ring laps it. *)
    let c = Flight.context () in
    let t0 = Clock.now_ns () in
    let parent = c.Flight.span in
    let id = Flight.next_id () in
    c.Flight.span <- id;
    let finish () =
      c.Flight.span <- parent;
      let dur = Int64.sub (Clock.now_ns ()) t0 in
      if fl then
        Flight.record_span ?trace:c.Flight.trace
          ?args:(if reg then args else None)
          ~id ~parent ~name
          ~t0_ns:(Int64.to_int t0) ~dur_ns:(Int64.to_int dur) ();
      if reg then Histogram.observe ("span." ^ name) (Int64.to_float dur /. 1e3)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end
