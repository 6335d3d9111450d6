(* Tests of link semantics: Integrity, No-loss, Fair-loss, FIFO delivery
   within a link, blocking, and counters. *)

module Id = Mm_core.Id
module Rng = Mm_rng.Rng
module Net = Mm_net.Network

type Mm_net.Message.payload += Num of int

let mk ?(seed = 1) ?(kind = Net.Reliable) ?delay n =
  Net.create ~rng:(Rng.create seed) ~n ~kind ?delay ()

let id = Id.of_int

let drain_all net p =
  let rec pump acc now =
    if now > 10_000 then acc
    else begin
      Net.tick net ~now;
      let got = Net.drain net p in
      if got = [] && Net.(stats net).in_flight = 0 then acc @ got
      else pump (acc @ got) (now + 1)
    end
  in
  pump [] 0

let nums got = List.filter_map (function _, Num i -> Some i | _ -> None) got

let test_reliable_no_loss () =
  let net = mk 3 in
  for i = 1 to 50 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  let got = drain_all net (id 1) in
  Alcotest.(check int) "all delivered" 50 (List.length got);
  let s = Net.stats net in
  Alcotest.(check int) "no drops" 0 s.Net.dropped

let test_integrity_no_duplication () =
  let net = mk 2 in
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  let got = drain_all net (id 1) in
  Alcotest.(check int) "exactly one" 1 (List.length got);
  Alcotest.(check int) "none left" 0 (Net.peek_count net (id 1))

let test_fifo_per_link () =
  let net = mk ~delay:(Net.Fixed 3) 2 in
  for i = 1 to 20 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  Alcotest.(check (list int)) "in order" (List.init 20 (fun i -> i + 1))
    (nums (drain_all net (id 1)))

let test_sender_attached () =
  let net = mk 3 in
  Net.send net ~now:0 ~src:(id 2) ~dst:(id 1) (Num 9);
  match drain_all net (id 1) with
  | [ (src, Num 9) ] -> Alcotest.(check int) "src" 2 (Id.to_int src)
  | _ -> Alcotest.fail "expected one message from p2"

let test_self_send_immediate () =
  let net = mk ~kind:(Net.Fair_lossy 0.9) 2 in
  (* Self-sends bypass the lossy link. *)
  for i = 1 to 20 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 0) (Num i)
  done;
  Alcotest.(check int) "all in mailbox already" 20 (Net.peek_count net (id 0))

let test_fair_lossy_statistics () =
  let net = mk ~seed:3 ~kind:(Net.Fair_lossy 0.5) 2 in
  for i = 1 to 1000 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  let s = Net.stats net in
  Alcotest.(check bool)
    (Printf.sprintf "dropped ~half (%d)" s.Net.dropped)
    true
    (s.Net.dropped > 400 && s.Net.dropped < 600)

let test_fair_loss_eventual_delivery () =
  (* Send the same message repeatedly: it must get through. *)
  let net = mk ~seed:4 ~kind:(Net.Fair_lossy 0.8) 2 in
  let delivered = ref false in
  let now = ref 0 in
  while (not !delivered) && !now < 1000 do
    Net.send net ~now:!now ~src:(id 0) ~dst:(id 1) (Num 1);
    Net.tick net ~now:!now;
    if Net.drain net (id 1) <> [] then delivered := true;
    incr now
  done;
  Alcotest.(check bool) "eventually received" true !delivered

let test_block_fn () =
  let net = mk 2 in
  Net.set_block_fn net (fun ~now ~src:_ ~dst:_ -> now < 100);
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  Net.tick net ~now:50;
  Alcotest.(check int) "held" 0 (Net.peek_count net (id 1));
  Alcotest.(check int) "held message still in flight" 1
    (Net.stats net).Net.in_flight;
  Net.tick net ~now:100;
  Alcotest.(check int) "released" 1 (Net.peek_count net (id 1));
  Alcotest.(check int) "in_flight drained after release" 0
    (Net.stats net).Net.in_flight

let test_window_diff () =
  let net = mk 2 in
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  let snap = Net.snapshot net in
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 2);
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 3);
  let d = Net.diff_since net snap in
  Alcotest.(check int) "window sends" 2 d.Net.sent

let test_delay_bounds () =
  let net = mk ~delay:(Net.Uniform (5, 9)) 2 in
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  Net.tick net ~now:4;
  Alcotest.(check int) "not before lo" 0 (Net.peek_count net (id 1));
  Net.tick net ~now:9;
  Alcotest.(check int) "by hi" 1 (Net.peek_count net (id 1))

let test_create_validation () =
  Alcotest.(check bool) "bad drop prob" true
    (try ignore (mk ~kind:(Net.Fair_lossy 1.0) 2); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative drop prob" true
    (try ignore (mk ~kind:(Net.Fair_lossy (-0.1)) 2); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "NaN drop prob" true
    (try ignore (mk ~kind:(Net.Fair_lossy Float.nan) 2); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad delay" true
    (try ignore (mk ~delay:(Net.Fixed 0) 2); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "uniform lo < 1" true
    (try ignore (mk ~delay:(Net.Uniform (0, 3)) 2); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "uniform hi < lo" true
    (try ignore (mk ~delay:(Net.Uniform (4, 2)) 2); false
     with Invalid_argument _ -> true)

let test_partition_holds_then_heals () =
  (* No-loss across a partition: messages sent into a held link stay
     queued (never dropped) and all come out after heal. *)
  let net = mk ~delay:(Net.Fixed 1) 4 in
  Net.partition net [ [ id 0; id 1 ]; [ id 2; id 3 ] ];
  for i = 1 to 25 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 2) (Num i)
  done;
  Net.tick net ~now:100;
  Alcotest.(check int) "held across the cut" 0 (Net.peek_count net (id 2));
  let s = Net.stats net in
  Alcotest.(check int) "nothing dropped while held" 0 s.Net.dropped;
  Alcotest.(check int) "all still in flight" 25 s.Net.in_flight;
  (* Same-side traffic is unaffected. *)
  Net.send net ~now:100 ~src:(id 0) ~dst:(id 1) (Num 99);
  Net.tick net ~now:101;
  Alcotest.(check int) "same side delivers" 1 (Net.peek_count net (id 1));
  Net.heal net;
  Net.tick net ~now:102;
  Alcotest.(check int) "all released after heal" 25 (Net.peek_count net (id 2));
  let s = Net.stats net in
  Alcotest.(check int) "in_flight drained" 0 s.Net.in_flight;
  Alcotest.(check int) "sent = delivered" s.Net.sent s.Net.delivered

(* [next_wake] is the earliest pending due (max_int when idle), so a tick
   before it is a no-op.  A link a partition holds is parked, not
   polled: while only held traffic remains [next_wake] is max_int, and
   [heal] wakes the very next tick, which delivers. *)
let test_next_wake () =
  let net = mk ~delay:(Net.Fixed 3) 3 in
  Alcotest.(check int) "idle" max_int (Net.next_wake net);
  Net.send net ~now:10 ~src:(id 0) ~dst:(id 1) (Num 1);
  Net.send net ~now:11 ~src:(id 0) ~dst:(id 2) (Num 2);
  Alcotest.(check int) "earliest due" 13 (Net.next_wake net);
  Net.tick net ~now:13;
  Alcotest.(check int) "delivered" 1 (Net.peek_count net (id 1));
  Alcotest.(check int) "next due" 14 (Net.next_wake net);
  Net.partition net [ [ id 0 ]; [ id 2 ] ];
  Net.tick net ~now:14;
  Alcotest.(check int) "held, parked until heal" max_int (Net.next_wake net);
  Net.send net ~now:14 ~src:(id 0) ~dst:(id 2) (Num 3);
  Alcotest.(check int) "a send onto a parked link arms nothing" max_int
    (Net.next_wake net);
  Net.heal net;
  Alcotest.(check bool) "heal wakes the next tick" true (Net.next_wake net <= 15);
  Net.tick net ~now:15;
  Alcotest.(check int) "released" 1 (Net.peek_count net (id 2));
  Alcotest.(check int) "in-transit message rearmed" 17 (Net.next_wake net);
  Net.tick net ~now:17;
  Alcotest.(check int) "delivered after the heal" 2 (Net.peek_count net (id 2));
  Alcotest.(check int) "idle again" max_int (Net.next_wake net)

(* A heal followed by a new partition before the next tick releases
   nothing: that tick finds the link held again and re-parks it. *)
let test_heal_then_repartition () =
  let net = mk ~delay:(Net.Fixed 1) 3 in
  Net.partition net [ [ id 0 ]; [ id 1 ] ];
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  Net.tick net ~now:1;
  Alcotest.(check int) "parked" max_int (Net.next_wake net);
  Net.heal net;
  Net.partition net [ [ id 0; id 2 ]; [ id 1 ] ];
  Net.tick net ~now:2;
  Alcotest.(check int) "still held" 0 (Net.peek_count net (id 1));
  Alcotest.(check int) "parked again" max_int (Net.next_wake net);
  Net.heal net;
  Net.tick net ~now:3;
  Alcotest.(check int) "released by the second heal" 1
    (Net.peek_count net (id 1))

(* [block_fn] depends on the step, so a link it holds is still polled:
   re-armed for the next step on every tick. *)
let test_block_fn_polled () =
  let net = mk ~delay:(Net.Fixed 1) 2 in
  Net.set_block_fn net (fun ~now ~src:_ ~dst:_ -> now < 5);
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  for now = 1 to 4 do
    Net.tick net ~now;
    Alcotest.(check int) "held" 0 (Net.peek_count net (id 1));
    Alcotest.(check int) "polled next step" (now + 1) (Net.next_wake net)
  done;
  Net.tick net ~now:5;
  Alcotest.(check int) "released" 1 (Net.peek_count net (id 1));
  Alcotest.(check int) "idle" max_int (Net.next_wake net)

let test_partition_validation () =
  let net = mk 3 in
  Alcotest.(check bool) "id out of range" true
    (try Net.partition net [ [ id 0; id 5 ] ]; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate membership" true
    (try Net.partition net [ [ id 0 ]; [ id 0; id 1 ] ]; false
     with Invalid_argument _ -> true)

let test_degrade_drop_and_restore () =
  let net = mk ~seed:7 2 in
  Net.degrade net ~src:(id 0) ~dst:(id 1) ~drop:0.95 ();
  for i = 1 to 500 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  let s = Net.stats net in
  Alcotest.(check bool)
    (Printf.sprintf "most dropped on a degraded reliable link (%d)" s.Net.dropped)
    true
    (s.Net.dropped > 400);
  Net.restore net;
  let before = Net.stats net in
  for i = 1 to 100 do
    Net.send net ~now:10 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  let d = Net.diff_since net before in
  Alcotest.(check int) "no drops after restore" 0 d.Net.dropped;
  Alcotest.(check bool) "bad degrade drop" true
    (try Net.degrade net ~src:(id 0) ~dst:(id 1) ~drop:1.0 (); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "NaN degrade drop" true
    (try Net.degrade net ~src:(id 0) ~dst:(id 1) ~drop:Float.nan (); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative degrade delay" true
    (try Net.degrade net ~src:(id 0) ~dst:(id 1) ~extra_delay:(-1) (); false
     with Invalid_argument _ -> true)

let test_degrade_extra_delay () =
  let net = mk ~delay:(Net.Fixed 2) 2 in
  Net.degrade net ~src:(id 0) ~dst:(id 1) ~extra_delay:10 ();
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  Net.tick net ~now:11;
  Alcotest.(check int) "not at base delay" 0 (Net.peek_count net (id 1));
  Net.tick net ~now:12;
  Alcotest.(check int) "at base + extra" 1 (Net.peek_count net (id 1))

(* A partition holding a 10k-message backlog on link 0 -> 1, one send per
   step.  Each batch of 100 sends runs under its own extra delay, so dues
   are not monotone in send order.  Returns the network, the next step
   and the send indices in the order No-loss plus per-link (due, uid)
   order prescribe: sorted by (due, send index). *)
let backlog_extra = [| 12; 0; 7; 3; 9; 1; 5 |]
let max_extra = Array.fold_left max 0 backlog_extra

let held_backlog ~index =
  let net =
    Net.create ~rng:(Rng.create 1) ~n:2 ~kind:Net.Reliable
      ~delay:(Net.Fixed 1) ~index ()
  in
  Net.partition net [ [ id 0 ]; [ id 1 ] ];
  let total = 10_000 in
  let dues = ref [] in
  for i = 0 to total - 1 do
    let extra = backlog_extra.(i / 100 mod Array.length backlog_extra) in
    if i mod 100 = 0 then
      Net.degrade net ~src:(id 0) ~dst:(id 1) ~extra_delay:extra ();
    Net.send net ~now:i ~src:(id 0) ~dst:(id 1) (Num i);
    dues := (i + 1 + extra, i) :: !dues;
    Net.tick net ~now:i
  done;
  (net, total, List.map snd (List.sort compare !dues))

let test_held_backlog_order () =
  let run index =
    let net, now, expected = held_backlog ~index in
    Alcotest.(check int) "nothing crosses the cut" 0 (Net.peek_count net (id 1));
    Alcotest.(check int) "backlog held" (List.length expected)
      (Net.stats net).Net.in_flight;
    Net.heal net;
    let got = ref [] in
    for t = now to now + max_extra + 1 do
      Net.tick net ~now:t;
      got := List.rev_append (nums (Net.drain net (id 1))) !got
    done;
    let got = List.rev !got in
    Alcotest.(check (list int)) "delivered in (due, send index) order"
      expected got;
    Alcotest.(check int) "drained" 0 (Net.stats net).Net.in_flight;
    got
  in
  let dense = run `Dense in
  Alcotest.(check (list int)) "dense = sparse" dense (run `Sparse)

(* A send onto a held link walks only the messages due after it, not the
   backlog: one more send behind 10k held messages allocates a constant
   handful of words (message, queue entry, cons cell). *)
let test_held_send_allocation () =
  List.iter
    (fun index ->
      let net, now, _ = held_backlog ~index in
      (* The largest extra delay puts the new message behind every other,
         so even the in-transit entries are not walked. *)
      Net.degrade net ~src:(id 0) ~dst:(id 1) ~extra_delay:max_extra ();
      let payload = Num now in
      let before = Gc.minor_words () in
      Net.send net ~now ~src:(id 0) ~dst:(id 1) payload;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "one send allocates %.0f minor words (< 64)" words)
        true (words < 64.0))
    [ `Dense; `Sparse ]

(* Held-link delivery pins.  A seeded adversary drives a network the way
   the engine does: at each step it may partition (nested, cumulative),
   heal, heal and re-partition in the same step, degrade or restore
   links, then sends; the clock advances and the network ticks, gated on
   [next_wake] or not.  A [block_fn] window holds every link whose
   endpoints sum to a multiple of 3 for 60 steps in every 500.  After
   the schedule everything heals and drains.  The MD5 of the whole
   delivery log (every drop and delivery event with its step, then each
   mailbox's payloads) plus the final stats pins exactly when and in
   which order held traffic comes out. *)
let held_link_log ~index ~n ~kind ~gated ~seed =
  let net =
    Net.create ~rng:(Rng.create seed) ~n ~kind ~delay:(Net.Uniform (1, 4))
      ~index ()
  in
  let adv = Rng.create (seed * 7919) in
  let buf = Buffer.create 65536 in
  let now = ref 0 in
  Net.set_observer net (function
    | Net.Drop { src; dst } ->
      Printf.bprintf buf "x %d %d %d\n" !now (Id.to_int src) (Id.to_int dst)
    | Net.Deliver { src; dst } ->
      Printf.bprintf buf "d %d %d %d\n" !now (Id.to_int src) (Id.to_int dst));
  Net.set_block_fn net (fun ~now ~src ~dst ->
      now mod 500 >= 200
      && now mod 500 < 260
      && (Id.to_int src + Id.to_int dst) mod 3 = 0);
  let random_partition () =
    let groups = 2 + Rng.int adv 2 in
    let members = Array.make groups [] in
    for p = n - 1 downto 0 do
      (* About one process in five stays unlisted and keeps its links. *)
      if Rng.int adv 5 > 0 then begin
        let g = Rng.int adv groups in
        members.(g) <- id p :: members.(g)
      end
    done;
    Net.partition net (Array.to_list members)
  in
  let tick () =
    incr now;
    if (not gated) || !now >= Net.next_wake net then Net.tick net ~now:!now;
    for p = 0 to n - 1 do
      List.iter
        (function
          | src, Num v -> Printf.bprintf buf "m %d %d %d %d\n" !now p (Id.to_int src) v
          | _ -> ())
        (Net.drain net (id p))
    done
  in
  let steps = 3_000 in
  let uid = ref 0 in
  (* Traffic concentrates on a few hot processes so that held links
     build real backlogs even at n = 70. *)
  let hot = min n 6 in
  let pick_pid () = if Rng.int adv 3 > 0 then Rng.int adv hot else Rng.int adv n in
  for _ = 1 to steps do
    (match Rng.int adv 100 with
    | 0 | 1 -> random_partition ()
    | 2 -> Net.heal net
    | 3 ->
      Net.heal net;
      random_partition ()
    | 4 | 5 ->
      Net.degrade net ~src:(id (pick_pid ())) ~dst:(id (pick_pid ()))
        ~drop:(if Rng.bool adv then 0.0 else 0.3)
        ~extra_delay:(Rng.int adv 6) ()
    | 6 -> Net.restore net
    | _ -> ());
    for _ = 1 to Rng.int adv 4 do
      let src = pick_pid () and dst = pick_pid () in
      Net.send net ~now:!now ~src:(id src) ~dst:(id dst) (Num !uid);
      incr uid
    done;
    tick ()
  done;
  Net.heal net;
  Net.restore net;
  let stop = !now + 1_000 in
  while (Net.stats net).Net.in_flight > 0 && !now < stop do
    tick ()
  done;
  let s = Net.stats net in
  Printf.bprintf buf "stats %d %d %d %d\n" s.Net.sent s.Net.delivered
    s.Net.dropped s.Net.in_flight;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let held_link_cases =
  [
    ("dense reliable", `Dense, 4, Net.Reliable, true, 1);
    ("dense reliable ungated", `Dense, 4, Net.Reliable, false, 2);
    ("dense lossy", `Dense, 4, Net.Fair_lossy 0.2, true, 3);
    ("dense lossy ungated", `Dense, 4, Net.Fair_lossy 0.2, false, 4);
    ("sparse reliable", `Sparse, 70, Net.Reliable, true, 5);
    ("sparse reliable ungated", `Sparse, 70, Net.Reliable, false, 6);
    ("sparse lossy", `Sparse, 70, Net.Fair_lossy 0.2, true, 7);
    ("sparse lossy ungated", `Sparse, 70, Net.Fair_lossy 0.2, false, 8);
  ]

let held_link_expected =
  [
    "8f3569504d64e4ebb8002f34a735a2f7";
    "a732268c225e2098e1c0c2b6d20ada1d";
    "f84093efae18e020e6f2b590309ae888";
    "5e9d080636765240e65a25dda86cbb98";
    "590ac4a208c1729712149119f71bb391";
    "22a03bdc092e0ce5bc4ee8643f365782";
    "dfa5f34788e782c00871350282a4d13e";
    "f8882260bfe3a2a44a441a188127f9f4";
  ]

(* The dense cases are also run on the sparse index: same log. *)
let test_held_link_pins () =
  List.iter2
    (fun (name, index, n, kind, gated, seed) expected ->
      Alcotest.(check string) name expected
        (held_link_log ~index ~n ~kind ~gated ~seed);
      if index = `Dense then
        Alcotest.(check string) (name ^ ", sparse index") expected
          (held_link_log ~index:`Sparse ~n ~kind ~gated ~seed))
    held_link_cases held_link_expected

let prop_reliable_counts =
  QCheck.Test.make ~name:"reliable: sent = delivered + in_flight" ~count:50
    QCheck.(pair (int_range 1 60) (int_range 0 100))
    (fun (k, seed) ->
      let net = mk ~seed 3 in
      for i = 1 to k do
        Net.send net ~now:0 ~src:(id 0) ~dst:(id (1 + (i mod 2))) (Num i)
      done;
      Net.tick net ~now:2;
      let s = Net.stats net in
      s.Net.sent = s.Net.delivered + s.Net.in_flight && s.Net.dropped = 0)

let () =
  Alcotest.run "mm_net"
    [
      ( "links",
        [
          Alcotest.test_case "reliable no-loss" `Quick test_reliable_no_loss;
          Alcotest.test_case "integrity" `Quick test_integrity_no_duplication;
          Alcotest.test_case "fifo per link" `Quick test_fifo_per_link;
          Alcotest.test_case "sender attached" `Quick test_sender_attached;
          Alcotest.test_case "self-send" `Quick test_self_send_immediate;
          Alcotest.test_case "fair lossy stats" `Quick test_fair_lossy_statistics;
          Alcotest.test_case "fair loss eventual" `Quick test_fair_loss_eventual_delivery;
          Alcotest.test_case "block fn" `Quick test_block_fn;
          Alcotest.test_case "window diff" `Quick test_window_diff;
          Alcotest.test_case "delay bounds" `Quick test_delay_bounds;
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "next wake" `Quick test_next_wake;
          Alcotest.test_case "heal then re-partition" `Quick
            test_heal_then_repartition;
          Alcotest.test_case "block fn polled" `Quick test_block_fn_polled;
          Alcotest.test_case "partition no-loss" `Quick
            test_partition_holds_then_heals;
          Alcotest.test_case "partition validation" `Quick
            test_partition_validation;
          Alcotest.test_case "degrade drop + restore" `Quick
            test_degrade_drop_and_restore;
          Alcotest.test_case "degrade extra delay" `Quick
            test_degrade_extra_delay;
          Alcotest.test_case "held backlog order" `Quick
            test_held_backlog_order;
          Alcotest.test_case "held send allocation" `Quick
            test_held_send_allocation;
          Alcotest.test_case "held-link delivery pins" `Quick
            test_held_link_pins;
          QCheck_alcotest.to_alcotest prop_reliable_counts;
        ] );
    ]
