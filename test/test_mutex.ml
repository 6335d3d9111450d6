(* Tests for the two mutual-exclusion implementations: safety, liveness,
   and the §1 claim — the m&m lock does not spin on shared memory. *)

module Mutex = Mm_mutex.Mutex
module Engine = Mm_sim.Engine

let check_safety_and_liveness name (o : Mutex.outcome) ~n ~entries =
  Alcotest.(check int) (name ^ ": no safety violations") 0
    o.Mutex.safety_violations;
  Alcotest.(check bool) (name ^ ": completed") true
    (o.Mutex.run.reason = Engine.Quiescent);
  Array.iteri
    (fun i e ->
      Alcotest.(check int) (Printf.sprintf "%s: p%d entries" name i) entries e)
    o.Mutex.entries;
  Alcotest.(check int) (name ^ ": total entries") (n * entries)
    (Array.fold_left ( + ) 0 o.Mutex.entries)

let test_bakery_basic () =
  let o = Mutex.run ~algo:Mutex.Bakery ~seed:1 ~n:4 ~entries:5 () in
  check_safety_and_liveness "bakery" o ~n:4 ~entries:5

let test_mm_basic () =
  let o = Mutex.run ~algo:Mutex.Mm ~seed:1 ~n:4 ~entries:5 () in
  check_safety_and_liveness "mm" o ~n:4 ~entries:5

let test_bakery_many_seeds () =
  for seed = 1 to 10 do
    let o = Mutex.run ~algo:Mutex.Bakery ~seed ~n:3 ~entries:4 () in
    Alcotest.(check int)
      (Printf.sprintf "bakery safe (seed %d)" seed)
      0 o.Mutex.safety_violations;
    Alcotest.(check bool) "done" true (o.Mutex.run.reason = Engine.Quiescent)
  done

let test_mm_many_seeds () =
  for seed = 1 to 10 do
    let o = Mutex.run ~algo:Mutex.Mm ~seed ~n:3 ~entries:4 () in
    Alcotest.(check int)
      (Printf.sprintf "mm safe (seed %d)" seed)
      0 o.Mutex.safety_violations;
    Alcotest.(check bool) "done" true (o.Mutex.run.reason = Engine.Quiescent)
  done

let test_single_process () =
  let o = Mutex.run ~algo:Mutex.Mm ~seed:2 ~n:1 ~entries:3 () in
  Alcotest.(check int) "entries" 3 o.Mutex.entries.(0);
  Alcotest.(check int) "no contention, no messages... wake-free" 0
    o.Mutex.run.net.Mm_net.Network.sent

let test_mm_does_not_spin () =
  (* The §1 claim, quantified: under contention the bakery's waiting
     reads grow with contention and CS length, while the m&m lock's
     waiting reads stay O(1) per entry (one recheck per wake). *)
  let n = 6 and entries = 8 in
  let bakery = Mutex.run ~algo:Mutex.Bakery ~seed:3 ~cs_work:30 ~n ~entries () in
  let mm = Mutex.run ~algo:Mutex.Mm ~seed:3 ~cs_work:30 ~n ~entries () in
  let b = Mutex.wait_reads_per_entry bakery in
  let m = Mutex.wait_reads_per_entry mm in
  Alcotest.(check bool)
    (Printf.sprintf "bakery spins (%.1f reads/entry)" b)
    true (b > 20.0);
  Alcotest.(check bool)
    (Printf.sprintf "mm does not spin (%.1f reads/entry)" m)
    true (m < 4.0);
  Alcotest.(check bool) "mm uses messages instead" true
    (mm.Mutex.run.net.Mm_net.Network.sent > 0);
  Alcotest.(check int) "bakery never sends" 0
    bakery.Mutex.run.net.Mm_net.Network.sent

let test_mm_message_bound () =
  (* At most one wake per handoff: messages <= total entries. *)
  let n = 5 and entries = 6 in
  let o = Mutex.run ~algo:Mutex.Mm ~seed:4 ~n ~entries () in
  Alcotest.(check bool) "bounded wakeups" true
    (o.Mutex.run.net.Mm_net.Network.sent <= n * entries)

let test_local_spin_basic () =
  let o = Mutex.run ~algo:Mutex.Local_spin ~seed:1 ~n:4 ~entries:5 () in
  check_safety_and_liveness "local-spin" o ~n:4 ~entries:5;
  Alcotest.(check int) "no messages" 0 o.Mutex.run.net.Mm_net.Network.sent

let test_local_spin_is_local () =
  (* All waiting reads after the first SERVING check are on the waiter's
     own GRANT register. *)
  let o = Mutex.run ~algo:Mutex.Local_spin ~seed:2 ~cs_work:30 ~n:5 ~entries:4 () in
  Alcotest.(check int) "safe" 0 o.Mutex.safety_violations;
  let total = Array.fold_left ( + ) 0 o.Mutex.wait_reads in
  let local = Array.fold_left ( + ) 0 o.Mutex.wait_reads_local in
  (* one remote SERVING read per entry; everything else local *)
  Alcotest.(check int) "remote reads = one per entry" (5 * 4) (total - local);
  Alcotest.(check bool) "it does spin (unlike m&m)" true
    (Mutex.wait_reads_per_entry o > 4.0)

let test_three_way_ordering () =
  (* The §1 story in one assertion chain: remote spins (bakery) and local
     spins (queue lock) burn reads; the m&m lock does neither. *)
  let n = 5 and entries = 5 and cs_work = 25 in
  let b = Mutex.run ~algo:Mutex.Bakery ~seed:4 ~cs_work ~n ~entries () in
  let l = Mutex.run ~algo:Mutex.Local_spin ~seed:4 ~cs_work ~n ~entries () in
  let m = Mutex.run ~algo:Mutex.Mm ~seed:4 ~cs_work ~n ~entries () in
  Alcotest.(check bool) "all safe" true
    (b.Mutex.safety_violations = 0
    && l.Mutex.safety_violations = 0
    && m.Mutex.safety_violations = 0);
  let spins o = Mutex.wait_reads_per_entry o in
  Alcotest.(check bool)
    (Printf.sprintf "mm %.1f << local %.1f and bakery %.1f" (spins m) (spins l)
       (spins b))
    true
    (spins m < 4.0 && spins l > 2.0 *. spins m && spins b > 2.0 *. spins m);
  (* only the m&m lock uses the network *)
  Alcotest.(check int) "bakery msgs" 0 b.Mutex.run.net.Mm_net.Network.sent;
  Alcotest.(check int) "local-spin msgs" 0 l.Mutex.run.net.Mm_net.Network.sent;
  Alcotest.(check bool) "mm msgs" true (m.Mutex.run.net.Mm_net.Network.sent > 0)

let test_spin_reads_counter () =
  (* spin_reads isolates the §1 invariant: re-reads while blocked that
     no wake-up prompted.  Structurally zero for the m&m lock (waiters
     sleep on the mailbox and recheck once per Wake), positive for both
     spinning locks under contention. *)
  let n = 5 and entries = 4 and cs_work = 25 in
  let b = Mutex.run ~algo:Mutex.Bakery ~seed:5 ~cs_work ~n ~entries () in
  let l = Mutex.run ~algo:Mutex.Local_spin ~seed:5 ~cs_work ~n ~entries () in
  let m = Mutex.run ~algo:Mutex.Mm ~seed:5 ~cs_work ~n ~entries () in
  let total o = Array.fold_left ( + ) 0 o.Mutex.spin_reads in
  Alcotest.(check bool) "bakery spins" true (total b > 0);
  Alcotest.(check bool) "local-spin spins" true (total l > 0);
  Alcotest.(check int) "mm never spins" 0 (total m)

let prop_mutex_safety =
  QCheck.Test.make ~name:"mutex safety across seeds and sizes" ~count:30
    QCheck.(triple (int_range 0 1000) (int_range 2 5) (int_range 1 4))
    (fun (seed, n, entries) ->
      let b = Mutex.run ~algo:Mutex.Bakery ~seed ~n ~entries () in
      let l = Mutex.run ~algo:Mutex.Local_spin ~seed ~n ~entries () in
      let m = Mutex.run ~algo:Mutex.Mm ~seed ~n ~entries () in
      b.Mutex.safety_violations = 0
      && l.Mutex.safety_violations = 0
      && m.Mutex.safety_violations = 0
      && b.Mutex.run.reason = Engine.Quiescent
      && l.Mutex.run.reason = Engine.Quiescent
      && m.Mutex.run.reason = Engine.Quiescent)

let () =
  Alcotest.run "mm_mutex"
    [
      ( "mutex",
        [
          Alcotest.test_case "bakery basic" `Quick test_bakery_basic;
          Alcotest.test_case "mm basic" `Quick test_mm_basic;
          Alcotest.test_case "bakery seeds" `Quick test_bakery_many_seeds;
          Alcotest.test_case "mm seeds" `Quick test_mm_many_seeds;
          Alcotest.test_case "single process" `Quick test_single_process;
          Alcotest.test_case "no spinning (§1)" `Quick test_mm_does_not_spin;
          Alcotest.test_case "message bound" `Quick test_mm_message_bound;
          Alcotest.test_case "local-spin basic" `Quick test_local_spin_basic;
          Alcotest.test_case "local-spin locality" `Quick test_local_spin_is_local;
          Alcotest.test_case "three-way ordering" `Quick test_three_way_ordering;
          Alcotest.test_case "spin-read counter (§1)" `Quick
            test_spin_reads_counter;
          QCheck_alcotest.to_alcotest prop_mutex_safety;
        ] );
    ]
