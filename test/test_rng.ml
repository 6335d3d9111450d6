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
      (* Far jumps wrap the 64-bit state; they compose. *)
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

let test_int_in_range_too_large () =
  let r = Rng.create 19 in
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises
        (Printf.sprintf "[%d, %d]" lo hi)
        (Invalid_argument "Rng.int_in_range: range too large")
        (fun () -> ignore (Rng.int_in_range r ~lo ~hi)))
    [ (0, max_int); (min_int, max_int) ];
  for _ = 1 to 100 do
    Alcotest.(check bool) "[1, max_int] draws" true
      (Rng.int_in_range r ~lo:1 ~hi:max_int >= 1)
  done

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

(* Reference splitmix64 on a plain [int64] record field, written
   independently of the production generator: the two must match bit
   for bit. *)
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

(* --- stream pins ---

   MD5 digests of every draw kind over a fixed seed set: the seven named
   seeds plus 200 derived ones.  The digests are hard-coded, so any change
   to the generator's arithmetic, draw order or fingerprint shows up here
   as a changed digest, independently of the Int64 reference above. *)

let stream_seeds =
  [ 0; 1; -1; 42; max_int; min_int; 0x5EED ]
  @ List.init 200 (fun i -> (i + 1) * 0x2545F4914F6CDD1D)

let stream_digest draws =
  let b = Buffer.create 4096 in
  List.iter
    (fun seed ->
      Buffer.add_string b (string_of_int seed);
      Buffer.add_char b ':';
      draws b (Rng.create seed);
      Buffer.add_char b '\n')
    stream_seeds;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_int b v =
  Buffer.add_string b (string_of_int v);
  Buffer.add_char b ' '

let add_int64 b v =
  Buffer.add_string b (Int64.to_string v);
  Buffer.add_char b ' '

let repeat k f =
  for _ = 1 to k do
    f ()
  done

let stream_pins =
  [
    ( "bits64",
      "786b15ae5226436789b4a0e9b71aecae",
      fun b r -> repeat 64 (fun () -> add_int64 b (Rng.bits64 r)) );
    ( "int",
      "143983753edfb0afd4393da9709a46bc",
      fun b r ->
        List.iter
          (fun bound -> repeat 16 (fun () -> add_int b (Rng.int r bound)))
          [ 1; 2; 3; 4; 7; 8; 1000; 1 lsl 31; max_int ] );
    ( "int_in_range",
      "42377a388576b1810311b7d58133c5a9",
      fun b r ->
        List.iter
          (fun (lo, hi) ->
            repeat 16 (fun () -> add_int b (Rng.int_in_range r ~lo ~hi)))
          [ (-3, 3); (-1000, 17); (-1, -1); (-(1 lsl 40), 1 lsl 40) ] );
    ( "bool",
      "95b3dec9d1916403b9de404f54864bc2",
      fun b r -> repeat 64 (fun () -> add_int b (Bool.to_int (Rng.bool r))) );
    ( "float",
      "bbbeed2b9e4adb94d2e387feaff94572",
      fun b r ->
        repeat 64 (fun () -> add_int64 b (Int64.bits_of_float (Rng.float r))) );
    ( "split",
      "72b8ea6121c4bbeb59231c7e0180852b",
      fun b r ->
        let children = List.init 4 (fun _ -> Rng.split r) in
        List.iter (fun c -> repeat 8 (fun () -> add_int64 b (Rng.bits64 c))) children;
        repeat 8 (fun () -> add_int64 b (Rng.bits64 r)) );
    ( "copy",
      "627a7570f54516c5de2772f700591d4a",
      fun b r ->
        repeat 3 (fun () -> ignore (Rng.bits64 r));
        let c = Rng.copy r in
        repeat 8 (fun () -> add_int64 b (Rng.bits64 c));
        repeat 8 (fun () -> add_int64 b (Rng.bits64 r)) );
    ( "jump",
      "9645a631abe8b821fdaf0804fd77e139",
      fun b r ->
        ignore (Rng.bits64 r);
        List.iter
          (fun k ->
            let j = Rng.jump r k in
            repeat 4 (fun () -> add_int64 b (Rng.bits64 j)))
          [ 0; 1; 1 lsl 31; (1 lsl 32) - 1 ];
        add_int64 b (Rng.bits64 r) );
    ( "fingerprint",
      "b0b8a93d32feaf413c375417823289a6",
      fun b r ->
        Rng.fingerprint_start r;
        add_int b (Rng.fingerprint r);
        ignore (Rng.int r 1000);
        ignore (Rng.bool r);
        add_int b (Rng.fingerprint r);
        ignore (Rng.float r);
        ignore (Rng.bits64 r);
        ignore (Rng.split r);
        ignore (Rng.int_in_range r ~lo:(-5) ~hi:5);
        add_int b (Rng.fingerprint r) );
  ]

let test_stream_pins () =
  List.iter
    (fun (name, expected, draws) ->
      Alcotest.(check string) (name ^ " stream digest") expected (stream_digest draws))
    stream_pins

(* The simulator draws on every scheduler step and every send, so the
   integer draws must not allocate: a boxed temporary here would be paid
   on every step of every run. *)
let test_draws_allocate_nothing () =
  let r = Rng.create 0x5EED in
  List.iter
    (fun (name, draw) ->
      ignore (draw ());
      let before = Gc.minor_words () in
      for _ = 1 to 100_000 do
        ignore (Sys.opaque_identity (draw ()))
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "100k %s draws: minor words" name)
        0.0 words)
    [
      ("int", fun () -> Rng.int r 1000);
      ("bool", fun () -> Bool.to_int (Rng.bool r));
      ("int_in_range", fun () -> Rng.int_in_range r ~lo:(-7) ~hi:7);
    ]

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
          Alcotest.test_case "int_in_range too large" `Quick
            test_int_in_range_too_large;
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
          Alcotest.test_case "stream pins" `Quick test_stream_pins;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_draws_allocate_nothing;
          QCheck_alcotest.to_alcotest prop_int_uniformish;
        ] );
    ]
