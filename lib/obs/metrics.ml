(* One snapshot per render, shared by every format. *)
let snapshot () = (Counter.snapshot (), Histogram.snapshot_full ())

let hist_fields (s : Histogram.summary) (q : Histogram.quantiles) =
  [
    ("count", Json.Int s.count);
    ("sum", Json.Float s.sum);
    ("min", Json.Float s.min);
    ("max", Json.Float s.max);
    ("mean", Json.Float s.mean);
    ("p50", Json.Float q.q_p50);
    ("p90", Json.Float q.q_p90);
    ("p99", Json.Float q.q_p99);
  ]

let to_json () =
  let counters, hists = snapshot () in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) counters));
      ( "histograms",
        Json.Obj (List.map (fun (name, s, q) -> (name, Json.Obj (hist_fields s q))) hists) );
      ("dropped_span_events", Json.Int (Flight.dropped_total ()));
    ]

let write_file path = Json.write_file path (to_json ())

let write_jsonl path =
  let counters, hists = snapshot () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line kind name fields =
        Json.to_channel oc
          (Json.Obj (("type", Json.String kind) :: ("name", Json.String name) :: fields));
        output_char oc '\n'
      in
      List.iter (fun (name, v) -> line "counter" name [ ("value", Json.Int v) ]) counters;
      List.iter (fun (name, s, q) -> line "histogram" name (hist_fields s q)) hists)

let summary_string () =
  let counters, hists = snapshot () in
  if counters = [] && hists = [] then ""
  else begin
    let buf = Buffer.create 512 in
    if counters <> [] then begin
      Buffer.add_string buf "counters:\n";
      let width =
        List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 counters
      in
      List.iter
        (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-*s %d\n" width name v))
        counters
    end;
    if hists <> [] then begin
      Buffer.add_string buf "histograms (count / mean / p50 / p99 / min / max):\n";
      let width =
        List.fold_left (fun acc (name, _, _) -> max acc (String.length name)) 0 hists
      in
      List.iter
        (fun (name, (s : Histogram.summary), (q : Histogram.quantiles)) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-*s %d / %.3f / %.3f / %.3f / %.3f / %.3f\n" width name
               s.count s.mean q.q_p50 q.q_p99 s.min s.max))
        hists
    end;
    Buffer.contents buf
  end
