(* Unit and property tests for the splittable PRNG. *)

module Rng = Mm_rng.Rng

let test_determinism () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_split_independence () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = List.init 50 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 50 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_copy () =
  let a = Rng.create 3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_jump () =
  List.iter
    (fun seed ->
      let master = Rng.create seed in
      let seq = Rng.create seed in
      for k = 0 to 2000 do
        Alcotest.(check int64)
          (Printf.sprintf "seed %d: jump %d = %d steps" seed k k)
          (Rng.bits64 seq)
          (Rng.bits64 (Rng.jump master k))
      done;
      (* Far jumps carry across the state's 32-bit limbs; they compose. *)
      let far = (1 lsl 32) - 1 in
      Alcotest.(check int64)
        (Printf.sprintf "seed %d: jumps compose" seed)
        (Rng.bits64 (Rng.jump master far))
        (Rng.bits64 (Rng.jump (Rng.jump master (1 lsl 31)) (far - (1 lsl 31)))))
    [ 0; 1; -1; max_int; 0x5EED ];
  let r = Rng.create 1 in
  Alcotest.check_raises "negative" (Invalid_argument "Rng.jump: need 0 <= k < 2^32")
    (fun () -> ignore (Rng.jump r (-1)));
  Alcotest.check_raises "too far" (Invalid_argument "Rng.jump: need 0 <= k < 2^32")
    (fun () -> ignore (Rng.jump r (1 lsl 32)))

let test_int_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_int_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_float_range () =
  let r = Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_int_in_range () =
  let r = Rng.create 17 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 2000 do
    let x = Rng.int_in_range r ~lo:(-3) ~hi:3 in
    if x = -3 then seen_lo := true;
    if x = 3 then seen_hi := true;
    Alcotest.(check bool) "in range" true (x >= -3 && x <= 3)
  done;
  Alcotest.(check bool) "endpoints hit" true (!seen_lo && !seen_hi)

let test_bool_balance () =
  let r = Rng.create 23 in
  let trues = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bool r then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "roughly fair (%.3f)" ratio)
    true
    (ratio > 0.45 && ratio < 0.55)

let test_shuffle_permutation () =
  let r = Rng.create 31 in
  let xs = List.init 20 Fun.id in
  let ys = Rng.shuffle r xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_pick_members () =
  let r = Rng.create 37 in
  let xs = [ 2; 4; 6 ] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (List.mem (Rng.pick r xs) xs)
  done

(* Reference boxed-Int64 splitmix64 — the formulation the limb-based
   production implementation must match bit for bit. *)
module Ref_rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = mix64 (Int64.of_int seed) }

  let bits64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix64 t.state

  let split t =
    let s = bits64 t in
    { state = mix64 s }

  let int t bound =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    r mod bound

  let bool t = Int64.logand (bits64 t) 1L = 1L

  let float t =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
    float_of_int r /. 9007199254740992.0
end

let diff_seeds =
  [ 0; 1; 2; 42; 0xC0FFEE; -1; -123456789; max_int; min_int; 0x3FFF_FFFF ]

let test_matches_reference_bits () =
  List.iter
    (fun seed ->
      let a = Rng.create seed and b = Ref_rng.create seed in
      for i = 1 to 200 do
        Alcotest.(check int64)
          (Printf.sprintf "seed %d draw %d" seed i)
          (Ref_rng.bits64 b) (Rng.bits64 a)
      done)
    diff_seeds

let test_matches_reference_derived () =
  List.iter
    (fun seed ->
      let a = Rng.create seed and b = Ref_rng.create seed in
      for _ = 1 to 100 do
        Alcotest.(check int) "int" (Ref_rng.int b 1000003) (Rng.int a 1000003);
        Alcotest.(check bool) "bool" (Ref_rng.bool b) (Rng.bool a);
        Alcotest.(check (float 0.0)) "float" (Ref_rng.float b) (Rng.float a)
      done)
    diff_seeds

let test_matches_reference_split () =
  let a = Rng.create 99 and b = Ref_rng.create 99 in
  let ca = Rng.split a and cb = Ref_rng.split b in
  for _ = 1 to 100 do
    Alcotest.(check int64) "child stream" (Ref_rng.bits64 cb) (Rng.bits64 ca);
    Alcotest.(check int64) "parent stream" (Ref_rng.bits64 b) (Rng.bits64 a)
  done

let test_fingerprint_deterministic () =
  let digest seed =
    let r = Rng.create seed in
    Rng.fingerprint_start r;
    ignore (Rng.int r 100);
    ignore (Rng.bool r);
    ignore (Rng.split r);
    ignore (Rng.float r);
    Rng.fingerprint r
  in
  Alcotest.(check int) "same draws, same digest" (digest 5) (digest 5);
  Alcotest.(check bool) "different seed, different digest" true
    (digest 5 <> digest 6);
  Alcotest.(check bool) "digest is non-negative" true (digest 5 >= 0)

let test_fingerprint_sensitive_to_draw_count () =
  let digest_after n =
    let r = Rng.create 7 in
    Rng.fingerprint_start r;
    for _ = 1 to n do
      ignore (Rng.bool r)
    done;
    Rng.fingerprint r
  in
  Alcotest.(check bool) "extra draw changes digest" true
    (digest_after 3 <> digest_after 4)

let test_fingerprint_covers_values_not_states () =
  (* The digest folds the bounded results, not the raw mixer outputs:
     generators in different states that consume identical values must
     digest alike — sweep-level dedup hinges on exactly this. *)
  let digest seed =
    let r = Rng.create seed in
    Rng.fingerprint_start r;
    ignore (Rng.int r 1);
    (* always 0 *)
    Rng.fingerprint r
  in
  Alcotest.(check int) "same values, same digest" (digest 1) (digest 2)

let test_fingerprint_off_by_default () =
  let r = Rng.create 1 in
  Alcotest.check_raises "off" (Invalid_argument "Rng.fingerprint: fingerprinting is off")
    (fun () -> ignore (Rng.fingerprint r))

let test_fingerprint_does_not_perturb_stream () =
  let a = Rng.create 21 and b = Rng.create 21 in
  Rng.fingerprint_start a;
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 b) (Rng.bits64 a)
  done

let prop_int_uniformish =
  QCheck.Test.make ~name:"int covers all residues" ~count:50
    QCheck.(int_range 2 20)
    (fun bound ->
      let r = Rng.create bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Rng.int r bound) <- true
      done;
      Array.for_all Fun.id seen)

let () =
  Alcotest.run "mm_rng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "jump" `Quick test_jump;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "int_in_range" `Quick test_int_in_range;
          Alcotest.test_case "bool balance" `Quick test_bool_balance;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "pick members" `Quick test_pick_members;
          Alcotest.test_case "matches Int64 reference (bits64)" `Quick
            test_matches_reference_bits;
          Alcotest.test_case "matches Int64 reference (int/bool/float)" `Quick
            test_matches_reference_derived;
          Alcotest.test_case "matches Int64 reference (split)" `Quick
            test_matches_reference_split;
          Alcotest.test_case "fingerprint deterministic" `Quick
            test_fingerprint_deterministic;
          Alcotest.test_case "fingerprint counts draws" `Quick
            test_fingerprint_sensitive_to_draw_count;
          Alcotest.test_case "fingerprint covers values" `Quick
            test_fingerprint_covers_values_not_states;
          Alcotest.test_case "fingerprint off by default" `Quick
            test_fingerprint_off_by_default;
          Alcotest.test_case "fingerprint does not perturb stream" `Quick
            test_fingerprint_does_not_perturb_stream;
          QCheck_alcotest.to_alcotest prop_int_uniformish;
        ] );
    ]
