let rec digits x n = if x < 10 then n else digits (x / 10) (n + 1)

(* [i] must be non-negative. *)
let render i =
  let len = digits i 1 in
  let b = Bytes.create len in
  let rec fill x k =
    Bytes.unsafe_set b k (Char.unsafe_chr (48 + (x mod 10)));
    if k > 0 then fill (x / 10) (k - 1)
  in
  fill i (len - 1);
  Bytes.unsafe_to_string b

(* Immutable once built, so every domain may share it. *)
let small = Array.init 1024 render

let of_int i =
  if i < 0 then string_of_int i
  else if i < Array.length small then Array.unsafe_get small i
  else render i
