(* splitmix64 (Steele, Lea, Flood 2014).  A fixed odd increment ("gamma")
   walks the state; the output mix is a 64-bit finalizer.

   The 64-bit state is held as two 32-bit limbs in immediate ints rather
   than an [int64]: on non-flambda builds every [Int64] intermediate is
   boxed, and the simulator draws on every scheduler step, so the limb
   form keeps the whole draw path allocation-free.  Outputs are
   bit-identical to the boxed [Int64] formulation. *)

type t = {
  mutable s_hi : int;  (* state, bits 32..63 *)
  mutable s_lo : int;  (* state, bits 0..31 *)
  mutable o_hi : int;  (* latest mixed output, bits 32..63 *)
  mutable o_lo : int;  (* latest mixed output, bits 0..31 *)
  mutable fp : int;  (* FNV-1a digest of the draw stream; -1 when disabled *)
}

let mask32 = 0xFFFFFFFF
let mask16 = 0xFFFF

(* gamma = 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

(* finalizer multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB *)
let m1_hi = 0xBF58476D
let m1_lo = 0x1CE4E5B9
let m2_hi = 0x94D049BB
let m2_lo = 0x133111EB

(* Low 32 bits of a*b for a, b in [0, 2^32).  The 16-bit split keeps every
   partial product under 2^48, clear of the 63-bit overflow line. *)
let mul32_low a b =
  (((a land mask16) * b) + ((((a lsr 16) * (b land mask16)) land mask16) lsl 16))
  land mask32

(* High 32 bits of a*b for a, b in [0, 2^32). *)
let mul32_high a b =
  let a0 = a land mask16 and a1 = a lsr 16 in
  let b0 = b land mask16 and b1 = b lsr 16 in
  let t0 = a0 * b0 in
  let t1 = (a1 * b0) + (t0 lsr 16) in
  let t2 = (a0 * b1) + (t1 land mask16) in
  (a1 * b1) + (t1 lsr 16) + (t2 lsr 16)

let fnv_prime = 0x100000001B3

(* mix64 of (zh, zl), stored into [t.o_hi]/[t.o_lo]. *)
let mix_into t zh0 zl0 =
  (* z ^= z >>> 30 *)
  let zh = zh0 lxor (zh0 lsr 30) in
  let zl = zl0 lxor ((zl0 lsr 30) lor ((zh0 lsl 2) land mask32)) in
  (* z *= m1 (low 64 bits) *)
  let ph =
    (mul32_high zl m1_lo + mul32_low zh m1_lo + mul32_low zl m1_hi) land mask32
  in
  let pl = mul32_low zl m1_lo in
  (* z ^= z >>> 27 *)
  let zh = ph lxor (ph lsr 27) in
  let zl = pl lxor ((pl lsr 27) lor ((ph lsl 5) land mask32)) in
  (* z *= m2 (low 64 bits) *)
  let qh =
    (mul32_high zl m2_lo + mul32_low zh m2_lo + mul32_low zl m2_hi) land mask32
  in
  let ql = mul32_low zl m2_lo in
  (* z ^= z >>> 31 *)
  t.o_hi <- qh lxor (qh lsr 31);
  t.o_lo <- ql lxor ((ql lsr 31) lor ((qh lsl 1) land mask32))

(* One generator step: state += gamma, output = mix64 state. *)
let advance t =
  let sl = t.s_lo + gamma_lo in
  let s_lo = sl land mask32 in
  let s_hi = (t.s_hi + gamma_hi + (sl lsr 32)) land mask32 in
  t.s_lo <- s_lo;
  t.s_hi <- s_hi;
  mix_into t s_hi s_lo

(* Fold one consumed value into the stream digest.  The digest covers
   what the client actually drew — the bounded results — not the raw
   mixer outputs: two seeds whose draws land on the same decisions must
   fingerprint alike, or sweep-level dedup could never fire.  Aliasing
   across draw types is harmless because the type and bound of the nth
   draw are themselves a function of the values drawn before it. *)
let fold_fp t v =
  if t.fp >= 0 then t.fp <- ((t.fp lxor (v land max_int)) * fnv_prime) land max_int

let create seed =
  let t = { s_hi = 0; s_lo = 0; o_hi = 0; o_lo = 0; fp = -1 } in
  mix_into t ((seed asr 32) land mask32) (seed land mask32);
  t.s_hi <- t.o_hi;
  t.s_lo <- t.o_lo;
  t.o_hi <- 0;
  t.o_lo <- 0;
  t

let copy t =
  { s_hi = t.s_hi; s_lo = t.s_lo; o_hi = t.o_hi; o_lo = t.o_lo; fp = t.fp }

(* The state after [k] steps is the state plus k·gamma (mod 2^64), so a
   jump costs one limb multiply however far it goes. *)
let jump t k =
  if k < 0 || k > mask32 then invalid_arg "Rng.jump: need 0 <= k < 2^32";
  let lo = t.s_lo + mul32_low k gamma_lo in
  let hi = t.s_hi + mul32_high k gamma_lo + mul32_low k gamma_hi + (lo lsr 32) in
  { s_hi = hi land mask32; s_lo = lo land mask32; o_hi = 0; o_lo = 0; fp = -1 }

let bits64 t =
  advance t;
  fold_fp t t.o_lo;
  fold_fp t t.o_hi;
  Int64.logor
    (Int64.shift_left (Int64.of_int t.o_hi) 32)
    (Int64.of_int t.o_lo)

let split t =
  (* Two mixes: one output draw seeds the child, keeping parent/child
     streams disjoint under the splitmix64 analysis. *)
  advance t;
  fold_fp t t.o_lo;
  fold_fp t t.o_hi;
  let c = { s_hi = 0; s_lo = 0; o_hi = 0; o_lo = 0; fp = -1 } in
  mix_into c t.o_hi t.o_lo;
  c.s_hi <- c.o_hi;
  c.s_lo <- c.o_lo;
  c.o_hi <- 0;
  c.o_lo <- 0;
  c

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Use the top bits via modulo on the non-negative 62-bit projection; the
     modulo bias is negligible for the bounds used in the simulator. *)
  advance t;
  let v = ((t.o_hi lsl 30) lor (t.o_lo lsr 2)) mod bound in
  fold_fp t v;
  v

let bool t =
  advance t;
  let v = t.o_lo land 1 in
  fold_fp t v;
  v = 1

let float t =
  (* 53 random bits -> [0, 1). *)
  advance t;
  let m = (t.o_hi lsl 21) lor (t.o_lo lsr 11) in
  fold_fp t m;
  float_of_int m /. 9007199254740992.0

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

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
