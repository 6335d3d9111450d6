(* Tests for leader-based shared-memory Paxos driven by an Ω oracle:
   Disk-Paxos-style safety under dueling proposers, n-1 crash tolerance,
   and the m&m decision broadcast. *)

module Paxos = Mm_consensus.Paxos
module Decisions = Mm_consensus.Decisions
module Engine = Mm_sim.Engine
module Sched = Mm_sim.Sched
module Net = Mm_net.Network
module Mem = Mm_mem.Mem

(* Every process that never crashed decided. *)
let decided (o : Paxos.outcome) =
  Decisions.all_correct_decided ~crashed:o.Paxos.run.crashed o.Paxos.decisions

let test_static_leader () =
  for seed = 1 to 10 do
    let inputs = [| 3; 1; 4; 1; 5 |] in
    let o = Paxos.run ~seed ~oracle:(Paxos.Static 0) ~n:5 ~inputs () in
    Alcotest.(check bool) "terminates" true (decided o);
    Alcotest.(check bool) "agreement" true (Decisions.agreement o.Paxos.decisions);
    Alcotest.(check bool) "validity" true
      (Decisions.validity ~inputs o.Paxos.decisions)
  done

let test_static_leader_decides_own_value_when_first () =
  (* A stable leader with nobody competing decides its own input. *)
  let inputs = [| 9; 1; 2 |] in
  let o = Paxos.run ~seed:2 ~oracle:(Paxos.Static 0) ~n:3 ~inputs () in
  Array.iter
    (function
      | Some v -> Alcotest.(check int) "leader's value wins" 9 v
      | None -> Alcotest.fail "undecided")
    o.Paxos.decisions

(* A static leader outside [0, n) would never propose: rejected. *)
let test_static_leader_out_of_range () =
  List.iter
    (fun l ->
      Alcotest.check_raises
        (Printf.sprintf "static:%d" l)
        (Invalid_argument
           (Printf.sprintf "Paxos.run: static leader %d outside [0, 3)" l))
        (fun () ->
          ignore
            (Paxos.run ~oracle:(Paxos.Static l) ~n:3 ~inputs:[| 1; 2; 3 |] ())))
    [ 99; 3; -1 ]

let test_heartbeat_oracle () =
  for seed = 1 to 8 do
    let inputs = [| 7; 2; 7; 2 |] in
    let o = Paxos.run ~seed ~oracle:Paxos.Heartbeat ~n:4 ~inputs () in
    Alcotest.(check bool)
      (Printf.sprintf "terminates (seed %d)" seed)
      true (decided o);
    Alcotest.(check bool) "agreement" true (Decisions.agreement o.Paxos.decisions);
    Alcotest.(check bool) "validity" true
      (Decisions.validity ~inputs o.Paxos.decisions)
  done

let test_n_minus_1_crashes () =
  (* Registers survive crashes: the lone survivor decides alone once its
     detector suspects everybody else. *)
  let inputs = [| 1; 2; 3; 4 |] in
  let o =
    Paxos.run ~seed:3 ~oracle:Paxos.Heartbeat ~n:4
      ~crashes:[ (0, 0); (1, 0); (2, 0) ]
      ~inputs ()
  in
  Alcotest.(check bool) "survivor decides" true (decided o);
  (match o.Paxos.decisions.(3) with
  | Some v -> Alcotest.(check bool) "valid" true (v >= 1 && v <= 4)
  | None -> Alcotest.fail "undecided");
  Alcotest.(check bool) "beats the message-passing majority bound" true
    (3 * 2 > 4)

let test_leader_crash_failover () =
  (* The first leader (p0 under Heartbeat) crashes mid-run; another
     proposer takes over and finishes. *)
  for seed = 1 to 6 do
    let inputs = [| 5; 6; 7; 8 |] in
    let o =
      Paxos.run ~seed ~oracle:Paxos.Heartbeat ~n:4 ~crashes:[ (0, 400) ]
        ~inputs ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "failover decides (seed %d)" seed)
      true (decided o);
    Alcotest.(check bool) "agreement" true (Decisions.agreement o.Paxos.decisions);
    Alcotest.(check bool) "validity" true
      (Decisions.validity ~inputs o.Paxos.decisions)
  done

let test_anarchy_safety () =
  (* Everyone believes it leads: ballots duel.  Liveness is not
     guaranteed, but anything decided must still agree and be valid. *)
  for seed = 1 to 20 do
    let inputs = [| 1; 2; 3; 4; 5 |] in
    let o =
      Paxos.run ~seed ~oracle:Paxos.Anarchy ~max_steps:120_000 ~n:5 ~inputs ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "agreement under anarchy (seed %d)" seed)
      true (Decisions.agreement o.Paxos.decisions);
    Alcotest.(check bool) "validity" true
      (Decisions.validity ~inputs o.Paxos.decisions)
  done

let test_anarchy_with_crashes_safety () =
  for seed = 1 to 15 do
    let inputs = [| 1; 2; 3; 4; 5; 6 |] in
    let o =
      Paxos.run ~seed ~oracle:Paxos.Anarchy ~max_steps:120_000 ~n:6
        ~crashes:[ (1, 150); (4, 700) ]
        ~inputs ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "safe (seed %d)" seed)
      true
      (Decisions.agreement o.Paxos.decisions
       && Decisions.validity ~inputs o.Paxos.decisions)
  done

let test_decision_broadcast_wakes_followers () =
  (* With a static leader, followers learn the decision from the Decided
     message (or the rare register fallback) — they never write. *)
  let inputs = [| 4; 4; 4 |] in
  let o = Paxos.run ~seed:5 ~oracle:(Paxos.Static 1) ~n:3 ~inputs () in
  Alcotest.(check bool) "all decided" true (decided o);
  Alcotest.(check bool) "messages used for wake-up" true
    (o.Paxos.run.net.Net.sent > 0)

let test_ballots_grow_under_contention () =
  let inputs = [| 1; 2; 3 |] in
  let calm = Paxos.run ~seed:7 ~oracle:(Paxos.Static 0) ~n:3 ~inputs () in
  let duel =
    Paxos.run ~seed:7 ~oracle:Paxos.Anarchy ~max_steps:50_000 ~n:3 ~inputs ()
  in
  Alcotest.(check bool) "calm uses one ballot" true (calm.Paxos.max_ballot <= 3);
  Alcotest.(check bool)
    (Printf.sprintf "contention escalates ballots (%d)" duel.Paxos.max_ballot)
    true
    (duel.Paxos.max_ballot > calm.Paxos.max_ballot)

let prop_paxos_safety =
  QCheck.Test.make ~name:"paxos: safety over random oracles/crashes/seeds"
    ~count:60
    QCheck.(
      quad (int_range 0 5000) (int_range 2 6) (int_range 0 2) (int_range 0 2))
    (fun (seed, n, crash_count, oracle_ix) ->
      let oracle =
        match oracle_ix with
        | 0 -> Paxos.Static (seed mod n)
        | 1 -> Paxos.Heartbeat
        | _ -> Paxos.Anarchy
      in
      let inputs = Array.init n (fun i -> i * 10) in
      let crashes =
        List.init (min crash_count (n - 1)) (fun i -> (i, (seed mod 500) + 1))
      in
      let o =
        Paxos.run ~seed ~oracle ~max_steps:80_000 ~n ~crashes ~inputs ()
      in
      Decisions.agreement o.Paxos.decisions
      && Decisions.validity ~inputs o.Paxos.decisions)

let () =
  Alcotest.run "mm_paxos"
    [
      ( "paxos",
        [
          Alcotest.test_case "static leader" `Quick test_static_leader;
          Alcotest.test_case "leader value wins" `Quick
            test_static_leader_decides_own_value_when_first;
          Alcotest.test_case "static leader out of range" `Quick
            test_static_leader_out_of_range;
          Alcotest.test_case "heartbeat oracle" `Quick test_heartbeat_oracle;
          Alcotest.test_case "n-1 crashes" `Quick test_n_minus_1_crashes;
          Alcotest.test_case "leader crash failover" `Quick
            test_leader_crash_failover;
          Alcotest.test_case "anarchy safety" `Quick test_anarchy_safety;
          Alcotest.test_case "anarchy + crashes" `Quick
            test_anarchy_with_crashes_safety;
          Alcotest.test_case "decision broadcast" `Quick
            test_decision_broadcast_wakes_followers;
          Alcotest.test_case "ballot escalation" `Quick
            test_ballots_grow_under_contention;
          QCheck_alcotest.to_alcotest prop_paxos_safety;
        ] );
    ]
