(* Tests for the replicated log: per-slot agreement, completeness,
   leader failover, and command survival across leadership changes. *)

module Log = Mm_smr.Replicated_log
module Paxos = Mm_consensus.Paxos
module Engine = Mm_sim.Engine
module Net = Mm_net.Network
module Trace = Mm_sim.Trace
module Nemesis = Mm_check.Nemesis
module Proc = Mm_sim.Proc

let test_basic_replication () =
  let o = Log.run ~seed:1 ~n:3 ~commands_per_proc:3 () in
  Alcotest.(check bool) "completed" true o.Log.all_committed;
  Alcotest.(check bool) "consistent" true o.Log.consistent;
  (* 9 distinct commands need at least 9 slots *)
  Alcotest.(check bool) "slots >= commands" true (o.Log.slots_used >= 9)

let test_many_seeds () =
  for seed = 1 to 8 do
    let o = Log.run ~seed ~n:4 ~commands_per_proc:2 () in
    Alcotest.(check bool)
      (Printf.sprintf "committed (seed %d)" seed)
      true o.Log.all_committed;
    Alcotest.(check bool)
      (Printf.sprintf "consistent (seed %d)" seed)
      true o.Log.consistent
  done

let test_logs_agree_per_slot () =
  let o = Log.run ~seed:3 ~n:4 ~commands_per_proc:3 () in
  (* Stronger than the built-in flag: build the slot map explicitly. *)
  let slot_map = Hashtbl.create 32 in
  Array.iter
    (List.iter (fun (s, c) ->
         match Hashtbl.find_opt slot_map s with
         | None -> Hashtbl.add slot_map s c
         | Some c' ->
           Alcotest.(check bool)
             (Printf.sprintf "slot %d agrees" s)
             true (c = c')))
    o.Log.logs;
  Alcotest.(check bool) "flag matches" true o.Log.consistent

let test_follower_commands_reach_the_log () =
  (* Process 0 leads (smallest id); followers' commands must still get
     committed — via Forward messages. *)
  let o = Log.run ~seed:5 ~n:3 ~commands_per_proc:2 () in
  Alcotest.(check bool) "completed" true o.Log.all_committed;
  let committed_issuers =
    List.sort_uniq compare
      (List.map (fun (_, c) -> c.Log.issuer) o.Log.logs.(0))
  in
  Alcotest.(check (list int)) "all issuers present" [ 0; 1; 2 ] committed_issuers;
  Alcotest.(check bool) "forwarding used messages" true
    (o.Log.run.net.Net.sent > 0)

let test_leader_crash_failover () =
  for seed = 1 to 5 do
    let o =
      Log.run ~seed ~n:4 ~commands_per_proc:2 ~crashes:[ (0, 2_000) ]
        ~max_steps:3_000_000 ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "survives leader crash (seed %d)" seed)
      true o.Log.all_committed;
    Alcotest.(check bool) "consistent" true o.Log.consistent
  done

(* Crash-recovery, hand-authored: the leader goes down mid-run and comes
   back through its recovery closure.  Unlike crash-stop failover, the
   restarted replica rebuilds its log from the decided slot registers,
   so EVERY command — its own included — still commits, and the rebuilt
   log agrees slot-by-slot with the replicas that never went down. *)
let test_leader_restart_window () =
  for seed = 1 to 5 do
    let timeline =
      [ { Nemesis.at = 1_000; duration = 4_000; fault = Nemesis.Restart [ 0 ] } ]
    in
    let o =
      Log.run ~seed ~n:4 ~commands_per_proc:2 ~trace_capacity:100_000
        ~prepare:(Nemesis.install timeline) ~max_steps:3_000_000 ()
    in
    let restarted =
      List.exists
        (fun (e : Trace.event) -> e.Trace.op = Trace.Restarted)
        o.Log.run.trace
    in
    Alcotest.(check bool)
      (Printf.sprintf "restart fired (seed %d)" seed)
      true restarted;
    Alcotest.(check bool)
      (Printf.sprintf "all committed across the restart (seed %d)" seed)
      true o.Log.all_committed;
    Alcotest.(check bool) "consistent" true o.Log.consistent
  done

let test_crashed_commands_may_be_lost_but_safety_holds () =
  (* p3 crashes immediately: its commands need not commit, but whatever
     does commit must be consistent. *)
  let o =
    Log.run ~seed:7 ~n:4 ~commands_per_proc:2 ~crashes:[ (3, 0) ] ()
  in
  Alcotest.(check bool) "correct processes' commands committed" true
    o.Log.all_committed;
  Alcotest.(check bool) "consistent" true o.Log.consistent

let test_n_minus_1_crashes () =
  let o =
    Log.run ~seed:9 ~n:3 ~commands_per_proc:2
      ~crashes:[ (0, 0); (1, 0) ]
      ()
  in
  (* the lone survivor commits its own commands through its own slots *)
  Alcotest.(check bool) "survivor commits" true o.Log.all_committed;
  Alcotest.(check bool) "consistent" true o.Log.consistent

let test_duplicates_are_deduplicated () =
  (* At-least-once forwarding can decide a command into two slots; the
     apply layer must count it once. *)
  let o = Log.run ~seed:11 ~n:4 ~commands_per_proc:3 () in
  let distinct =
    List.sort_uniq compare (List.map snd o.Log.logs.(1))
  in
  (* every command in any log is distinct after dedup accounting:
     logs keep the duplicates, but applied-set counted them once, which
     all_committed already verified; here check the duplicate counter is
     consistent with the raw log *)
  let raw = List.length o.Log.logs.(1) in
  Alcotest.(check bool) "dups accounted" true (raw >= List.length distinct)

(* --- the reusable Slots/Proposer machinery --- *)

module Id = Mm_core.Id
module Domain_ = Mm_core.Domain

let test_slots_decided_read_is_message_free () =
  (* The §5.3 satellite pin: once a slot is decided, reading it at the
     leader is one register read — the network counters must not move at
     all, for the decided slot or for an undecided probe. *)
  let n = 3 in
  let eng =
    Engine.create ~seed:7 ~domain:(Domain_.full n) ~link:Net.Reliable ~n ()
  in
  let slots =
    Paxos.Slots.create (Engine.store eng) ~pids:(Array.init n Id.of_int)
      ~prefix:"T/"
  in
  Alcotest.(check int) "group size" n (Paxos.Slots.group_size slots);
  let ballot = ref None in
  let decided_read = ref None in
  let undecided_read = ref (Some 999) in
  let moved = ref (-1, -1) in
  Engine.spawn eng (Id.of_int 0) (fun () ->
      let p = Paxos.Proposer.create slots ~me:0 in
      (ballot := Paxos.Proposer.attempt p ~slot:0 42);
      (match !ballot with
      | Some v -> Paxos.Slots.write_decision slots 0 v
      | None -> ());
      let before = Net.stats (Engine.network eng) in
      decided_read := Paxos.Slots.read_decided slots 0;
      undecided_read := Paxos.Slots.read_decided slots 1;
      let after = Net.stats (Engine.network eng) in
      moved :=
        ( after.Net.sent - before.Net.sent,
          after.Net.delivered - before.Net.delivered ));
  ignore (Engine.run eng ~max_steps:5_000 ());
  Alcotest.(check (option int)) "uncontended ballot decides" (Some 42) !ballot;
  Alcotest.(check (option int)) "decided-slot read" (Some 42) !decided_read;
  Alcotest.(check (option int)) "undecided probe" None !undecided_read;
  Alcotest.(check (pair int int)) "zero messages for both reads" (0, 0) !moved;
  (* host-side peek agrees, and the whole run was message-free *)
  Alcotest.(check (option int)) "peek decided" (Some 42)
    (Paxos.Slots.peek_decided slots 0);
  Alcotest.(check (option int)) "peek undecided" None
    (Paxos.Slots.peek_decided slots 1);
  Alcotest.(check int) "no messages anywhere" 0
    (Net.stats (Engine.network eng)).Net.sent

let test_dueling_proposers_agree () =
  (* Two proposers race for slot 0 with different values; whoever loses
     the ballot catches up from the decision register.  Both must end up
     with the same chosen value. *)
  for seed = 1 to 10 do
    let n = 2 in
    let eng =
      Engine.create ~seed ~domain:(Domain_.full n) ~link:Net.Reliable ~n ()
    in
    let slots =
      Paxos.Slots.create (Engine.store eng) ~pids:(Array.init n Id.of_int)
        ~prefix:"T/"
    in
    let out = [| None; None |] in
    for me = 0 to 1 do
      Engine.spawn eng (Id.of_int me) (fun () ->
          let p = Paxos.Proposer.create slots ~me in
          let rec go () =
            match Paxos.Proposer.attempt p ~slot:0 (100 + me) with
            | Some v ->
              Paxos.Slots.write_decision slots 0 v;
              out.(me) <- Some v
            | None -> (
              match Paxos.Slots.read_decided slots 0 with
              | Some v -> out.(me) <- Some v
              | None -> go ())
          in
          go ())
    done;
    ignore
      (Engine.run eng ~max_steps:20_000
         ~until:(fun () -> out.(0) <> None && out.(1) <> None)
         ());
    Alcotest.(check bool)
      (Printf.sprintf "both decided (seed %d)" seed)
      true
      (out.(0) <> None && out.(1) <> None);
    Alcotest.(check bool)
      (Printf.sprintf "agreement (seed %d)" seed)
      true
      (out.(0) = out.(1))
  done

let test_slots_groups_are_independent () =
  (* Two groups sharing one store but distinct prefixes must not see
     each other's decisions. *)
  let n = 2 in
  let eng =
    Engine.create ~seed:3 ~domain:(Domain_.full n) ~link:Net.Reliable ~n ()
  in
  let pids = Array.init n Id.of_int in
  let a = Paxos.Slots.create (Engine.store eng) ~pids ~prefix:"A/" in
  let b = Paxos.Slots.create (Engine.store eng) ~pids ~prefix:"B/" in
  Engine.spawn eng (Id.of_int 0) (fun () ->
      let p = Paxos.Proposer.create a ~me:0 in
      match Paxos.Proposer.attempt p ~slot:0 7 with
      | Some v -> Paxos.Slots.write_decision a 0 v
      | None -> ());
  ignore (Engine.run eng ~max_steps:5_000 ());
  Alcotest.(check (option int)) "group A decided" (Some 7)
    (Paxos.Slots.peek_decided a 0);
  Alcotest.(check (option int)) "group B untouched" None
    (Paxos.Slots.peek_decided b 0)

let test_learner_decides_and_teaches () =
  (* Member 0 decides two slots; member 1 learns them from Learn
     messages alone, member 2 (which never reads its mailbox) from the
     decision registers once member 0 is done. *)
  let n = 3 in
  let eng =
    Engine.create ~seed:5 ~domain:(Domain_.full n) ~link:Net.Reliable ~n ()
  in
  let slots =
    Paxos.Slots.create (Engine.store eng) ~pids:(Array.init n Id.of_int)
      ~prefix:"L/"
  in
  let applied = Array.make n [] in
  let learner me =
    Paxos.Learner.create slots ~me ~apply:(fun ~slot v ->
        applied.(me) <- (slot, v) :: applied.(me))
  in
  let leader_done = ref false in
  Engine.spawn eng (Id.of_int 0) (fun () ->
      let l = learner 0 in
      Paxos.Learner.propose l 5;
      Paxos.Learner.propose l 9;
      leader_done := true);
  Engine.spawn eng (Id.of_int 1) (fun () ->
      let l = learner 1 in
      while List.length applied.(1) < 2 do
        List.iter
          (fun (_, m) ->
            match m with Paxos.Learn (s, v) -> Paxos.Learner.learn l s v | _ -> ())
          (Proc.receive ());
        Paxos.Learner.drain l ~read_register:false;
        Proc.yield ()
      done);
  Engine.spawn eng (Id.of_int 2) (fun () ->
      while not !leader_done do
        Proc.yield ()
      done;
      Paxos.Learner.drain (learner 2) ~read_register:true);
  ignore (Engine.run eng ~max_steps:5_000 ());
  Array.iteri
    (fun me log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d applied both slots" me)
        [ (0, 5); (1, 9) ] (List.rev log))
    applied

let test_agree () =
  Alcotest.(check bool) "no logs" true (Log.agree [||]);
  Alcotest.(check bool) "prefixes of one log" true
    (Log.agree [| [ (0, 1); (1, 2) ]; [ (0, 1) ]; [] |]);
  Alcotest.(check bool) "slot 1 split across logs" false
    (Log.agree [| [ (0, 1); (1, 2) ]; [ (0, 1); (1, 3) ] |]);
  Alcotest.(check bool) "slot 0 split within a log" false
    (Log.agree [| [ (0, 1); (0, 2) ] |])

let prop_smr_safety =
  QCheck.Test.make ~name:"replicated log: consistency over random runs"
    ~count:25
    QCheck.(triple (int_range 0 3000) (int_range 2 5) (int_range 1 3))
    (fun (seed, n, k) ->
      let crashes = if seed mod 3 = 0 then [ (n - 1, seed mod 1000) ] else [] in
      let o =
        Log.run ~seed ~n ~commands_per_proc:k ~crashes ~max_steps:600_000 ()
      in
      o.Log.consistent)

let () =
  Alcotest.run "mm_smr"
    [
      ( "replicated-log",
        [
          Alcotest.test_case "basic" `Quick test_basic_replication;
          Alcotest.test_case "many seeds" `Quick test_many_seeds;
          Alcotest.test_case "per-slot agreement" `Quick test_logs_agree_per_slot;
          Alcotest.test_case "follower commands" `Quick
            test_follower_commands_reach_the_log;
          Alcotest.test_case "leader crash" `Quick test_leader_crash_failover;
          Alcotest.test_case "leader restart window" `Quick
            test_leader_restart_window;
          Alcotest.test_case "crashed issuer" `Quick
            test_crashed_commands_may_be_lost_but_safety_holds;
          Alcotest.test_case "n-1 crashes" `Quick test_n_minus_1_crashes;
          Alcotest.test_case "dedup" `Quick test_duplicates_are_deduplicated;
          QCheck_alcotest.to_alcotest prop_smr_safety;
        ] );
      ( "slots",
        [
          Alcotest.test_case "decided read is message-free" `Quick
            test_slots_decided_read_is_message_free;
          Alcotest.test_case "dueling proposers agree" `Quick
            test_dueling_proposers_agree;
          Alcotest.test_case "groups independent" `Quick
            test_slots_groups_are_independent;
          Alcotest.test_case "learner decides and teaches" `Quick
            test_learner_decides_and_teaches;
          Alcotest.test_case "agree" `Quick test_agree;
        ] );
    ]
