(* Eight 256-entry slices back to back: slice 0 is the bytewise table,
   slice [k] a byte's contribution [k] bytes further on, so one step folds
   eight bytes through eight independent lookups, on unboxed ints. *)
let table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := (!c lsr 1) lxor if !c land 1 = 0 then 0 else 0xEDB88320
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    t.(i) <- (t.(i - 256) lsr 8) lxor t.(t.(i - 256) land 0xFF)
  done;
  t

let slice k i = Array.unsafe_get table ((k lsl 8) lor (i land 0xFF))
let word s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let string s =
  let crc = ref 0xFFFFFFFF and i = ref 0 and stop = String.length s in
  while !i <= stop - 8 do
    let a = !crc lxor word s !i and b = word s (!i + 4) in
    crc :=
      slice 7 a lxor slice 6 (a lsr 8) lxor slice 5 (a lsr 16) lxor slice 4 (a lsr 24)
      lxor slice 3 b lxor slice 2 (b lsr 8) lxor slice 1 (b lsr 16) lxor slice 0 (b lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    crc := slice 0 (!crc lxor Char.code (String.unsafe_get s !i)) lxor (!crc lsr 8);
    incr i
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)
