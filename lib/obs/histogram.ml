type summary = { count : int; sum : float; min : float; max : float; mean : float }

type quantiles = {
  q_count : int;
  q_p50 : float;
  q_p90 : float;
  q_p99 : float;
  q_max : float;
}

(* --- Log-bucket geometry ---------------------------------------------------

   Observations land in geometrically spaced buckets: bucket [i] covers
   [gamma^(i-offset-1), gamma^(i-offset)).  gamma = 1.15 gives ~16.5
   buckets per decade, so a quantile read back from a bucket midpoint is
   within ~7% of the true value; 256 buckets span ~1.5e-5 .. 4e11, which
   in microseconds covers nanosecond probes up to multi-day runs. *)

let gamma = 1.15
let log_gamma = log gamma
let n_buckets = 256
let bucket_offset = 64

let bucket_of v =
  if not (Float.is_finite v) || v <= 0.0 then 0
  else
    let i = bucket_offset + 1 + int_of_float (Float.floor (log v /. log_gamma)) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

(* Geometric midpoint of the bucket: the representative value quantile
   estimation reports. *)
let bucket_value i = Float.exp (log_gamma *. (float_of_int (i - bucket_offset) -. 0.5))

(* The observation count at or below which the q-quantile sits. *)
let rank_of q count =
  let r = int_of_float (Float.ceil (q *. float_of_int count)) in
  if r < 1 then 1 else if r > count then count else r

let quantile_of_buckets ~count ~max_seen buckets q =
  if count = 0 then nan
  else begin
    let rank = rank_of q count in
    let cum = ref 0 and result = ref max_seen in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + buckets.(i);
         if !cum >= rank then begin
           result := bucket_value i;
           raise Exit
         end
       done
     with Exit -> ());
    (* Never report past the true extreme of the distribution. *)
    Float.min !result max_seen
  end

let quantiles_of_buckets ~count ~max_seen buckets =
  let q x = quantile_of_buckets ~count ~max_seen buckets x in
  { q_count = count; q_p50 = q 0.5; q_p90 = q 0.9; q_p99 = q 0.99; q_max = max_seen }

(* --- Lifetime histogram ------------------------------------------------------

   One record for both shapes: the standalone histogram (always-on
   server telemetry, no registry, no switch) and each domain's named
   cell in the registry. *)

type t = Registry.hist

let create () : t =
  {
    h_count = 0;
    h_sum = 0.0;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
    h_buckets = Array.make n_buckets 0;
  }

let record (t : t) v =
  t.h_count <- t.h_count + 1;
  t.h_sum <- t.h_sum +. v;
  if v < t.h_min then t.h_min <- v;
  if v > t.h_max then t.h_max <- v;
  let b = bucket_of v in
  t.h_buckets.(b) <- t.h_buckets.(b) + 1

let count (t : t) = t.h_count
let sum (t : t) = t.h_sum
let absorb = Registry.absorb_hist

let clear (t : t) =
  t.h_count <- 0;
  t.h_sum <- 0.0;
  t.h_min <- Float.infinity;
  t.h_max <- Float.neg_infinity;
  Array.fill t.h_buckets 0 n_buckets 0

let stats (t : t) =
  {
    count = t.h_count;
    sum = t.h_sum;
    min = t.h_min;
    max = t.h_max;
    mean = (if t.h_count = 0 then 0.0 else t.h_sum /. float_of_int t.h_count);
  }

let quantile_summary (t : t) =
  quantiles_of_buckets ~count:t.h_count ~max_seen:t.h_max t.h_buckets

(* --- Registry-named histograms -------------------------------------------- *)

let observe name v =
  if Registry.on () then begin
    let l = Registry.local () in
    match Hashtbl.find_opt l.Registry.hists name with
    | Some h -> record h v
    | None ->
        let h = create () in
        record h v;
        Hashtbl.add l.Registry.hists name h
  end

(* Reads merge every domain's observations of the name, retired ones
   included. *)
let merged_tbl () = (Registry.merged ()).Registry.hists

let summary name = Option.map stats (Hashtbl.find_opt (merged_tbl ()) name)
let quantiles name = Option.map quantile_summary (Hashtbl.find_opt (merged_tbl ()) name)

let quantiles_json q =
  Json.Obj
    [
      ("count", Json.Int q.q_count);
      ("p50", Json.Float q.q_p50);
      ("p90", Json.Float q.q_p90);
      ("p99", Json.Float q.q_p99);
      ("max", Json.Float q.q_max);
    ]

let snapshot () =
  Hashtbl.fold (fun name h acc -> (name, stats h) :: acc) (merged_tbl ()) []
  |> List.sort compare

(* One merged read feeding both views, so the pairs cannot drift under
   concurrent observation. *)
let snapshot_full () =
  Hashtbl.fold
    (fun name h acc -> (name, stats h, quantile_summary h) :: acc)
    (merged_tbl ()) []
  |> List.sort compare

(* --- Sliding window --------------------------------------------------------

   A ring of the most recent observations; quantiles over it are exact
   (sort of at most [capacity] floats at read time), so "recent p99"
   reflects what the daemon is doing now, not its lifetime average. *)

type window = { w_ring : float array; mutable w_next : int; mutable w_seen : int }

let default_window_capacity = 512

let window ?(capacity = default_window_capacity) () =
  if capacity < 1 then invalid_arg "Histogram.window: capacity must be at least 1";
  { w_ring = Array.make capacity 0.0; w_next = 0; w_seen = 0 }

let window_record w v =
  w.w_ring.(w.w_next) <- v;
  w.w_next <- (w.w_next + 1) mod Array.length w.w_ring;
  w.w_seen <- w.w_seen + 1

let window_size w = min w.w_seen (Array.length w.w_ring)

let window_quantiles w =
  let n = window_size w in
  if n = 0 then None
  else begin
    let sorted = Array.sub w.w_ring 0 n in
    Array.sort compare sorted;
    let at q = sorted.(rank_of q n - 1) in
    Some { q_count = n; q_p50 = at 0.5; q_p90 = at 0.9; q_p99 = at 0.99; q_max = sorted.(n - 1) }
  end
