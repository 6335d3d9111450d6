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
  (* With a static leader, followers learn the decision from the Learn
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

(* One [Paxos.ballot] by member 0 of a three-member group whose other
   blocks start as given; returns the outcome and member 0's register. *)
let lone_ballot ~b ~known others v =
  let n = 3 in
  let module Id = Mm_core.Id in
  let eng =
    Engine.create ~seed:1 ~domain:(Mm_core.Domain.full n) ~link:Net.Reliable
      ~n ()
  in
  let pids = Id.all n in
  let blocks =
    Array.init n (fun i ->
        let owner = Id.of_int i in
        Mem.alloc (Engine.store eng)
          ~name:(Printf.sprintf "B[%d]" i)
          ~owner
          ~shared_with:(List.filter (fun q -> not (Id.equal q owner)) pids)
          (if i = 0 then known else others.(i - 1)))
  in
  let out = ref None in
  Engine.spawn eng (Id.of_int 0) (fun () ->
      out := Some (Paxos.ballot blocks ~me:0 ~b ~known v));
  ignore (Engine.run eng ~max_steps:100 ());
  let k, r = Option.get !out in
  Alcotest.(check bool) "returned block is in the register" true
    (Mem.peek blocks.(0) = k);
  (k, r)

let test_ballot_phases () =
  let open Paxos in
  let blk mbal bal value = { mbal; bal; value } in
  (* Nothing accepted anywhere: the proposer's own value is chosen. *)
  let k, r = lone_ballot ~b:4 ~known:empty_block [| empty_block; empty_block |] 7 in
  Alcotest.(check bool) "own value" true (r = Ok 7 && k = blk 4 4 (Some 7));
  (* The value accepted at the highest ballot is adopted. *)
  let k, r =
    lone_ballot ~b:9 ~known:(blk 2 2 (Some 1))
      [| blk 5 3 (Some 30); blk 6 5 (Some 50) |]
      7
  in
  Alcotest.(check bool) "adopts bal 5" true (r = Ok 50 && k = blk 9 9 (Some 50));
  (* A higher ballot aborts phase 1; the accepted pair stays. *)
  let k, r =
    lone_ballot ~b:4 ~known:(blk 1 1 (Some 1)) [| empty_block; blk 8 0 None |] 7
  in
  Alcotest.(check bool) "overtaken by 8" true
    (r = Error 8 && k = blk 4 1 (Some 1))

(* Paxos.run is slot 0 of one group: under every oracle, with the
   crash and restart shapes of the algorithm digest, on both backends,
   every register the whole trace names is R[0][i], D[0] or ALIVE[i] —
   no register of a later slot is ever materialized: the store holds
   at most those 2n + 1.  A last shape restarts a process that is not a
   crash-plan victim after the others decided, so its recovery boot
   reads a decided D[0]. *)
let test_slot0_footprint () =
  let slot0 name =
    let bracketed prefix =
      String.starts_with ~prefix name
      && String.ends_with ~suffix:"]" name
      && (let d =
            String.sub name (String.length prefix)
              (String.length name - String.length prefix - 1)
          in
          d <> "" && String.for_all (fun c -> c >= '0' && c <= '9') d)
    in
    name = "D[0]" || bracketed "R[0][" || bracketed "ALIVE["
  in
  let capacity = 200_000 in
  List.iter
    (fun oracle ->
      List.iter
        (fun (n, seed, crashes, restarts, window) ->
          List.iter
            (fun backend ->
              let store = ref None in
              let prepare eng =
                store := Some (Engine.store eng);
                List.iter
                  (fun (p, at) ->
                    Engine.restart_at eng (Mm_core.Id.of_int p) at)
                  restarts;
                Option.iter
                  (fun (p, down, up) ->
                    Engine.crash_at eng (Mm_core.Id.of_int p) down;
                    Engine.restart_at eng (Mm_core.Id.of_int p) up)
                  window
              in
              let o =
                Paxos.run ~seed ~oracle ~max_steps:120_000
                  ~trace_capacity:capacity ~crashes ~prepare ~backend ~n
                  ~inputs:(Array.init n (fun i -> i mod 2))
                  ()
              in
              let trace = o.Paxos.run.Engine.trace in
              Alcotest.(check bool) "whole trace kept" true
                (List.length trace < capacity);
              let names =
                List.filter_map
                  (fun ev ->
                    match ev.Mm_sim.Trace.op with
                    | Mm_sim.Trace.Read r
                    | Mm_sim.Trace.Wrote r
                    | Mm_sim.Trace.Blocked r ->
                      Some r
                    | _ -> None)
                  trace
              in
              List.iter
                (fun r ->
                  if not (slot0 r) then
                    Alcotest.failf "n=%d seed=%d: register %s is not slot 0's" n
                      seed r)
                names;
              Alcotest.(check bool) "slot 0's blocks are used" true
                (List.mem "R[0][0]" names);
              Alcotest.(check bool) "no other register allocated" true
                (Mem.reg_count (Option.get !store) <= (2 * n) + 1))
            [ Mem.Backend.Native; Mem.Backend.Emulated ])
        [
          (3, 31, [ (0, 6) ], [ (0, 18) ], None);
          (5, 32, [ (4, 5); (0, 30) ], [ (0, 400) ], None);
          (3, 31, [], [], Some (2, 5, 300));
        ])
    [ Paxos.Static 0; Paxos.Heartbeat; Paxos.Anarchy ]

(* Disk Paxos's recovery: member 0 of a two-member group proposes 7 and
   crashes right after its phase-2 write (nobody decided yet).  Restarted,
   it restores its block and proposes 9: phase 1 must find its own
   accepted 7 and decide it.  Without the restore the fresh proposer
   would overwrite its accepted block and decide 9. *)
let test_restore_keeps_accepted_value () =
  let module Id = Mm_core.Id in
  let n = 2 in
  (* Member 0 runs whenever it can; member 1 only while it cannot. *)
  let sched =
    Sched.create
      (Sched.Custom
         (fun v ->
           if Bytes.get v.Sched.mask 0 <> '\000' then 0 else v.Sched.runnable.(0)))
  in
  let eng =
    Engine.create ~seed:1 ~sched ~trace_capacity:100
      ~domain:(Mm_core.Domain.full n) ~link:Net.Reliable ~n ()
  in
  let slots =
    Paxos.Slots.create (Engine.store eng) ~pids:(Array.init n Id.of_int)
      ~prefix:""
  in
  let decided = Array.make n None in
  let learner me =
    Paxos.Learner.create slots ~me ~apply:(fun ~slot:_ v ->
        decided.(me) <- Some v)
  in
  Engine.spawn eng (Id.of_int 0)
    ~recover:(fun () ->
      let l = learner 0 in
      Paxos.Learner.restore l ~slot:0;
      Paxos.Learner.propose l 9)
    (fun () -> Paxos.Learner.propose (learner 0) 7);
  Engine.spawn eng (Id.of_int 1) (fun () ->
      let l = learner 1 in
      while decided.(1) = None do
        List.iter
          (fun (_, m) ->
            match m with Paxos.Learn (s, v) -> Paxos.Learner.learn l s v | _ -> ())
          (Mm_sim.Proc.receive ());
        Paxos.Learner.drain l ~read_register:false;
        if decided.(1) = None then Mm_sim.Proc.yield ()
      done);
  (* Steps 1-3 are member 0's phase-1 write, its read of member 1's
     block and its phase-2 write. *)
  Engine.crash_at eng (Id.of_int 0) 4;
  Engine.restart_at eng (Id.of_int 0) 6;
  ignore
    (Engine.run eng ~max_steps:1_000
       ~until:(fun () -> decided.(0) <> None && decided.(1) <> None)
       ());
  let before_crash =
    let rec go acc = function
      | [] -> List.rev acc
      | ev :: rest ->
        if ev.Mm_sim.Trace.op = Mm_sim.Trace.Crashed then List.rev acc
        else go (Format.asprintf "%a" Mm_sim.Trace.pp_event ev :: acc) rest
    in
    go [] (Engine.summary eng).Engine.trace
  in
  Alcotest.(check (list string)) "crash right after the phase-2 write"
    [
      "[     1] p0 write R[0][0]";
      "[     2] p0 read R[0][1]";
      "[     3] p0 write R[0][0]";
    ]
    before_crash;
  Alcotest.(check (option int)) "restarted member decides its accepted value"
    (Some 7) decided.(0);
  Alcotest.(check (option int)) "the other member learns it" (Some 7)
    decided.(1)

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
          Alcotest.test_case "ballot phases" `Quick test_ballot_phases;
          Alcotest.test_case "slot-0 footprint" `Quick test_slot0_footprint;
          Alcotest.test_case "restore keeps accepted value" `Quick
            test_restore_keeps_accepted_value;
          QCheck_alcotest.to_alcotest prop_paxos_safety;
        ] );
    ]
