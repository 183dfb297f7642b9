type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 finalizer (Steele, Lea, Flood 2014). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: non-positive bound";
  let mask = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  let bits53 = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits53 /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

(* Double-mix derivation: hashing both the root and the index through the
   finalizer puts stream [i] and stream [i+1] at unrelated points of the
   SplitMix64 state space.  The naive [base + i * gamma] scheme would make
   stream [i+1] equal to stream [i] shifted by one draw — exactly the
   cross-task correlation per-task generators exist to rule out. *)
let derive ~root index =
  if index < 0 then invalid_arg "Prng.derive: negative index";
  let base = mix64 (Int64.of_int root) in
  let salt = Int64.mul golden_gamma (Int64.of_int (index + 1)) in
  { state = mix64 (Int64.logxor base salt) }
