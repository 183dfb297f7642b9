type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

(* One sink per process.  [emit] can be called from several domains (the
   daemon's select loop plus test harnesses), so the channel and the
   sampling counter sit behind one mutex; the no-sink fast path is a
   single atomic load. *)
let active = Atomic.make false
let mu = Mutex.create ()
let sink : out_channel option ref = ref None
let min_level = ref Info
let sample_every = ref 1
let sample_tick = ref 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let close_log () =
  locked (fun () ->
      Option.iter close_out_noerr !sink;
      sink := None;
      Atomic.set active false)

let open_log path =
  close_log ();
  let oc = open_out path in
  locked (fun () ->
      sink := Some oc;
      (* Fresh log, fresh sampling phase. *)
      sample_tick := 0;
      Atomic.set active true)

let set_level l = locked (fun () -> min_level := l)

let set_sample n =
  if n < 1 then invalid_arg "Event.set_sample: keep-1-in-n needs n >= 1";
  locked (fun () ->
      sample_every := n;
      sample_tick := 0)

let emit ?(level = Info) ?(fields = []) name =
  (* The flight recorder sees every event whether or not a log sink is
     open — black-box instants are not conditional on --events. *)
  Flight.record_event name;
  if Atomic.get active then begin
    (* Trace id and domain come from the calling domain's cell, outside
       the lock. *)
    let trace = Flight.current_trace () in
    let dom = (Domain.self () :> int) in
    let ts_us = Clock.now_us () in
    locked (fun () ->
        match !sink with
        | None -> ()
        | Some oc ->
            if severity level >= severity !min_level then begin
              (* Warn and Error always land; Debug/Info are kept 1-in-N
                 under --sample so a hot daemon can keep the log on
                 without drowning in it.  Counter-based, so the kept set
                 is deterministic. *)
              let keep =
                if severity level >= severity Warn || !sample_every = 1 then true
                else begin
                  sample_tick := !sample_tick + 1;
                  if !sample_tick >= !sample_every then begin
                    sample_tick := 0;
                    true
                  end
                  else false
                end
              in
              if keep then begin
                let base =
                  [
                    ("ts_us", Json.Float ts_us);
                    ("level", Json.String (level_to_string level));
                    ("event", Json.String name);
                    ("dom", Json.Int dom);
                  ]
                in
                let base =
                  match trace with
                  | Some id -> base @ [ ("trace_id", Json.String id) ]
                  | None -> base
                in
                (try
                   Json.to_channel oc (Json.Obj (base @ fields));
                   output_char oc '\n';
                   flush oc
                 with Sys_error _ -> ())
              end
            end)
  end
