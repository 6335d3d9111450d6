(* Mutual exclusion without spinning — the paper's §1 motivation.

   Both locks below guarantee mutual exclusion.  The difference is what a
   waiting process does: bakery waiters re-read shared registers in a
   loop (burning interconnect bandwidth and CPU), while the m&m lock's
   waiters sleep on their mailbox until the exiting process sends them a
   wake-up message — messages and memory working together.

   Run with:  dune exec examples/mutex_no_spin.exe *)

module Mutex = Mm_mutex.Mutex

let () =
  Printf.printf "%3s %10s | %22s | %22s %14s\n" "n" "cs work"
    "bakery spin reads/entry" "m&m wait reads/entry" "m&m msgs/entry";
  List.iter
    (fun (n, cs_work) ->
      let entries = 6 in
      let b = Mutex.run ~algo:Mutex.Bakery ~seed:5 ~cs_work ~n ~entries () in
      let m = Mutex.run ~algo:Mutex.Mm ~seed:5 ~cs_work ~n ~entries () in
      assert (b.Mutex.safety_violations = 0);
      assert (m.Mutex.safety_violations = 0);
      Printf.printf "%3d %10d | %22.1f | %22.2f %14.2f\n" n cs_work
        (Mutex.wait_reads_per_entry b)
        (Mutex.wait_reads_per_entry m)
        (float_of_int m.Mutex.run.net.Mm_net.Network.sent
        /. float_of_int (n * entries)))
    [ (2, 10); (2, 50); (4, 10); (4, 50); (8, 10); (8, 50) ];
  Printf.printf
    "\nThe bakery's spinning grows with both contention (n) and critical-\n\
     section length; the m&m lock does a constant ~2 register reads and\n\
     at most one message per handoff no matter how long the wait is.\n"
