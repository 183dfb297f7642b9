open Slif_util

let check_int = Alcotest.(check int)

(* ceil(log2 n), seen through [address_bits] for n > 1. *)
let test_clog2 () =
  let clog2 n = Bitmath.address_bits ~length:n in
  check_int "clog2 2" 1 (clog2 2);
  check_int "clog2 3" 2 (clog2 3);
  check_int "clog2 4" 2 (clog2 4);
  check_int "clog2 5" 3 (clog2 5);
  check_int "clog2 128" 7 (clog2 128);
  check_int "clog2 129" 8 (clog2 129);
  check_int "clog2 1024" 10 (clog2 1024)

let test_clog2_invalid () =
  Alcotest.check_raises "length 0" (Invalid_argument "Bitmath.address_bits")
    (fun () -> ignore (Bitmath.address_bits ~length:0));
  Alcotest.check_raises "length -3" (Invalid_argument "Bitmath.address_bits")
    (fun () -> ignore (Bitmath.address_bits ~length:(-3)))

(* The bits to tell n values apart, seen through [bits_for_range 0 (n-1)]. *)
let test_bits_for_cardinality () =
  let bits n = Bitmath.bits_for_range ~lo:0 ~hi:(n - 1) in
  check_int "1 value still needs a wire" 1 (bits 1);
  check_int "2 values" 1 (bits 2);
  check_int "256 values" 8 (bits 256);
  check_int "257 values" 9 (bits 257)

let test_bits_for_range_unsigned () =
  check_int "0..255 is 8 bits" 8 (Bitmath.bits_for_range ~lo:0 ~hi:255);
  check_int "0..0 is 1 bit" 1 (Bitmath.bits_for_range ~lo:0 ~hi:0);
  check_int "0..1023 is 10 bits" 10 (Bitmath.bits_for_range ~lo:0 ~hi:1023);
  check_int "1..16 is 5 bits" 5 (Bitmath.bits_for_range ~lo:1 ~hi:16)

let test_bits_for_range_signed () =
  check_int "-255..255 needs sign" 9 (Bitmath.bits_for_range ~lo:(-255) ~hi:255);
  check_int "-1..0 is 1+1 bits" 2 (Bitmath.bits_for_range ~lo:(-1) ~hi:0);
  check_int "-128..127 is 8 bits" 8 (Bitmath.bits_for_range ~lo:(-128) ~hi:127)

let test_bits_for_range_invalid () =
  Alcotest.check_raises "empty range" (Invalid_argument "Bitmath.bits_for_range: empty range")
    (fun () -> ignore (Bitmath.bits_for_range ~lo:3 ~hi:2))

let test_address_bits () =
  (* The paper's Figure 3: a 128-element array needs 7 address bits. *)
  check_int "128 elements -> 7 bits" 7 (Bitmath.address_bits ~length:128);
  check_int "1 element -> 0 bits" 0 (Bitmath.address_bits ~length:1);
  check_int "384 elements -> 9 bits" 9 (Bitmath.address_bits ~length:384)

let test_ceil_div () =
  check_int "32/16" 2 (Bitmath.ceil_div 32 16);
  check_int "33/16" 3 (Bitmath.ceil_div 33 16);
  check_int "0/16" 0 (Bitmath.ceil_div 0 16);
  check_int "15/16" 1 (Bitmath.ceil_div 15 16);
  Alcotest.check_raises "zero divisor"
    (Invalid_argument "Bitmath.ceil_div: non-positive divisor") (fun () ->
      ignore (Bitmath.ceil_div 4 0))

let suite =
  [
    Alcotest.test_case "clog2 values" `Quick test_clog2;
    Alcotest.test_case "clog2 rejects non-positives" `Quick test_clog2_invalid;
    Alcotest.test_case "bits_for_cardinality" `Quick test_bits_for_cardinality;
    Alcotest.test_case "bits_for_range unsigned" `Quick test_bits_for_range_unsigned;
    Alcotest.test_case "bits_for_range signed" `Quick test_bits_for_range_signed;
    Alcotest.test_case "bits_for_range rejects empty" `Quick test_bits_for_range_invalid;
    Alcotest.test_case "address_bits" `Quick test_address_bits;
    Alcotest.test_case "ceil_div" `Quick test_ceil_div;
  ]
