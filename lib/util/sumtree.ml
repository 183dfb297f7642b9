(* [node.(0)] is unused and [node.(1)] is the root; the array has at least
   two cells so that an empty tree's total reads a cell that stays 0.0. *)
type t = { n : int; node : float array }

let create n =
  if n < 0 then invalid_arg "Sumtree.create: negative length";
  { n; node = Array.make (max 2 (2 * n)) 0.0 }

let check t i name = if i < 0 || i >= t.n then invalid_arg ("Sumtree." ^ name ^ ": no such leaf")

let leaf t i =
  check t i "leaf";
  t.node.(t.n + i)

let set t i v =
  check t i "set";
  let node = t.node in
  let j = ref (t.n + i) in
  node.(!j) <- v;
  while !j > 1 do
    let p = !j lsr 1 in
    node.(p) <- node.(2 * p) +. node.((2 * p) + 1);
    j := p
  done

let total t = t.node.(1)

let load t f =
  let node = t.node in
  for i = 0 to t.n - 1 do
    node.(t.n + i) <- f i
  done;
  for p = t.n - 1 downto 1 do
    node.(p) <- node.(2 * p) +. node.((2 * p) + 1)
  done

let sum n f =
  let rec go p = if p >= n then f (p - n) else go (2 * p) +. go ((2 * p) + 1) in
  if n = 0 then 0.0 else go 1
