(* splitmix64 (Steele, Lea, Flood 2014).  A fixed odd increment ("gamma")
   walks the state; the output mix is a 64-bit finalizer.

   The 64-bit state lives in an 8-byte [Bytes.t] rather than a mutable
   [int64] field: such a field holds a boxed [Int64], so every draw would
   allocate a fresh box to store the new state.  [Bytes.get_int64_ne] and
   [set_int64_ne] compile to one load and one store, and ocamlopt keeps
   [Int64] temporaries that never escape a function unboxed, so a draw is
   a few native 64-bit instructions and the integer draws allocate
   nothing.  The simulator draws on every scheduler step and every send. *)

type t = {
  st : Bytes.t;  (* the 64-bit state, native-endian *)
  mutable fp : int;  (* FNV-1a digest of the draw stream; -1 when disabled *)
}

let gamma = 0x9E3779B97F4A7C15L
let fnv_prime = 0x100000001B3

let[@inline] mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* One generator step: state += gamma, output = mix64 state. *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t.st 0) gamma in
  Bytes.set_int64_ne t.st 0 s;
  mix64 s

(* A fresh generator in state [s], fingerprinting off. *)
let[@inline] of_state s =
  let st = Bytes.create 8 in
  Bytes.set_int64_ne st 0 s;
  { st; fp = -1 }

(* Fold one consumed value into the stream digest.  The digest covers
   what the client actually drew — the bounded results — not the raw
   mixer outputs: two seeds whose draws land on the same decisions must
   fingerprint alike, or sweep-level dedup could never fire.  Aliasing
   across draw types is harmless because the type and bound of the nth
   draw are themselves a function of the values drawn before it. *)
let fold_fp t v =
  if t.fp >= 0 then t.fp <- ((t.fp lxor (v land max_int)) * fnv_prime) land max_int

(* A raw output enters the digest as its low then its high 32 bits. *)
let[@inline] fold_fp64 t x =
  fold_fp t (Int64.to_int x land 0xFFFFFFFF);
  fold_fp t (Int64.to_int (Int64.shift_right_logical x 32))

let create seed = of_state (mix64 (Int64.of_int seed))
let copy t = { st = Bytes.copy t.st; fp = t.fp }

(* The state after [k] steps is the state plus k·gamma (mod 2^64), so a
   jump costs one multiply however far it goes. *)
let jump t k =
  if k < 0 || k > 0xFFFFFFFF then invalid_arg "Rng.jump: need 0 <= k < 2^32";
  of_state (Int64.add (Bytes.get_int64_ne t.st 0) (Int64.mul (Int64.of_int k) gamma))

let bits64 t =
  let x = next t in
  fold_fp64 t x;
  x

let split t =
  (* Two mixes: one output draw seeds the child, keeping parent/child
     streams disjoint under the splitmix64 analysis. *)
  let x = next t in
  fold_fp64 t x;
  of_state (mix64 x)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Use the top bits via modulo on the non-negative 62-bit projection; the
     modulo bias is negligible for the bounds used in the simulator. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound in
  fold_fp t v;
  v

let bool t =
  let v = Int64.to_int (next t) land 1 in
  fold_fp t v;
  v = 1

let float t =
  (* 53 random bits -> [0, 1). *)
  let m = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  fold_fp t m;
  float_of_int m /. 9007199254740992.0

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  (* [hi - lo + 1] wraps to a non-positive int exactly when the range
     holds more than [max_int] values. *)
  let span = hi - lo + 1 in
  if span <= 0 then invalid_arg "Rng.int_in_range: range too large";
  lo + int t span

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t xs =
  let a = Array.of_list xs in
  shuffle_in_place t a;
  Array.to_list a

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

(* --- draw-stream fingerprinting --- *)

(* FNV-1a offset basis 0xCBF29CE484222325 folded into the non-negative
   range of a 63-bit int. *)
let fnv_basis = 0x0BF29CE484222325

let fingerprint_start t = t.fp <- fnv_basis

let fingerprint t =
  if t.fp < 0 then invalid_arg "Rng.fingerprint: fingerprinting is off";
  t.fp
