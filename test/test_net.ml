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
   before it is a no-op; a held link is re-polled every step. *)
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
  Alcotest.(check int) "held, polled next step" 15 (Net.next_wake net);
  Net.heal net;
  Net.tick net ~now:15;
  Alcotest.(check int) "released" 1 (Net.peek_count net (id 2));
  Alcotest.(check int) "idle again" max_int (Net.next_wake net)

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
          QCheck_alcotest.to_alcotest prop_reliable_counts;
        ] );
    ]
