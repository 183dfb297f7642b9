open Slif_util

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 13 in
    Alcotest.(check bool) "0 <= v < 13" true (v >= 0 && v < 13)
  done;
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_prng_varies () =
  let rng = Prng.create 3 in
  let values = List.init 50 (fun _ -> Prng.int rng 1000000) in
  let distinct = List.sort_uniq compare values in
  Alcotest.(check bool) "not constant" true (List.length distinct > 40)

let test_prng_invalid_bound () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: non-positive bound")
    (fun () -> ignore (Prng.int rng 0))

let test_table_render () =
  let t = Table.create ~header:[ "name"; "count" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "23" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "header + separator + 2 rows" 4 (List.length lines);
  (* Numeric column is right-aligned. *)
  Alcotest.(check bool) "right-aligned count" true
    (match lines with
    | _ :: _ :: r1 :: r2 :: _ ->
        String.length r1 = String.length r2
        && String.get r1 (String.length r1 - 1) = '1'
    | _ -> false)

let test_table_width_mismatch () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

(* After every random leaf write, the maintained root is bitwise the
   recursive sum over the same shape, for every small length and around
   powers of two; a bulk [load] of the same leaves agrees too. *)
let test_sumtree_matches_recursive_sum () =
  let rng = Prng.create 17 in
  List.iter
    (fun n ->
      let t = Sumtree.create n in
      let shadow = Array.make n 0.0 in
      for step = 1 to 4 * n do
        let i = Prng.int rng n in
        let v = if Prng.int rng 4 = 0 then 0.0 else Prng.float rng 1e3 in
        Sumtree.set t i v;
        shadow.(i) <- v;
        let expected = Sumtree.sum n (fun i -> shadow.(i)) in
        if not (same_bits expected (Sumtree.total t)) then
          Alcotest.failf "n=%d step %d: total %h, recursive sum %h" n step (Sumtree.total t)
            expected
      done;
      let loaded = Sumtree.create n in
      Sumtree.load loaded (fun i -> shadow.(i));
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: load agrees" n)
        true
        (same_bits (Sumtree.total t) (Sumtree.total loaded)))
    (List.init 40 (fun i -> i + 1) @ [ 63; 64; 65; 127; 128; 129; 1000 ])

let test_sumtree_edges () =
  let empty = Sumtree.create 0 in
  Alcotest.(check (float 0.0)) "empty total" 0.0 (Sumtree.total empty);
  Alcotest.(check (float 0.0)) "empty sum" 0.0 (Sumtree.sum 0 (fun _ -> 1.0));
  let one = Sumtree.create 1 in
  Sumtree.set one 0 2.5;
  Alcotest.(check (float 0.0)) "single leaf is the total" 2.5 (Sumtree.total one);
  Alcotest.check_raises "leaf out of range" (Invalid_argument "Sumtree.set: no such leaf")
    (fun () -> Sumtree.set one 1 0.0);
  (* The shape: leaves at 3..5 pair as (l1 + l2) + l0. *)
  Alcotest.(check bool)
    "three-leaf shape" true
    (same_bits
       (Sumtree.sum 3 (fun i -> [| 1e16; 1.0; 1.0 |].(i)))
       ((1.0 +. 1.0) +. 1e16))

let suite =
  [
    Alcotest.test_case "prng is deterministic per seed" `Quick test_prng_deterministic;
    Alcotest.test_case "prng respects bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng varies" `Quick test_prng_varies;
    Alcotest.test_case "prng rejects bad bound" `Quick test_prng_invalid_bound;
    Alcotest.test_case "table renders aligned" `Quick test_table_render;
    Alcotest.test_case "table rejects ragged rows" `Quick test_table_width_mismatch;
    Alcotest.test_case "sumtree root equals recursive sum" `Quick
      test_sumtree_matches_recursive_sum;
    Alcotest.test_case "sumtree edge cases" `Quick test_sumtree_edges;
  ]
