(* Tests for eventual leader election: the executable Theorems 5.1/5.2,
   the steady-state cost claims, locality, failover, and the contrast
   with the message-passing baseline. *)

module Mem = Mm_mem.Mem
module Net = Mm_net.Network
module Omega = Mm_election.Omega
module Mp = Mm_election.Mp_omega

let sum_window_messages (o : Omega.outcome) = o.Omega.window_net.Net.sent

let test_reliable_elects () =
  for seed = 1 to 5 do
    let o = Omega.run ~seed ~variant:Omega.Reliable ~n:5 () in
    Alcotest.(check bool)
      (Printf.sprintf "omega holds (seed %d)" seed)
      true (Omega.holds o)
  done

let test_untimely_process_loses_leadership () =
  (* Ω does not promise that a *declared*-timely process wins — under a
     fair scheduler every process is effectively timely and the smallest
     id wins ties.  What the accusation mechanism does guarantee is that
     a process whose relative speed degrades without bound cannot stay
     leader: starve process 0 with exponentially growing gaps and the
     others must elect somebody else despite 0 having the smallest id.
     (0's own output may lag arbitrarily — Ω is only *eventual* — so we
     crash 0 before the measurement window and check agreement among the
     rest.) *)
  let gap = ref 64 in
  let next0 = ref 0 in
  let starving_base =
    Mm_sim.Sched.Custom
      (fun v ->
        let runnable =
          Array.to_list
            (Array.sub v.Mm_sim.Sched.runnable 0 v.Mm_sim.Sched.count)
        in
        if List.mem 0 runnable && v.Mm_sim.Sched.now >= !next0 then begin
          if !gap < 1 lsl 40 then gap := !gap * 2;
          next0 := v.Mm_sim.Sched.now + !gap;
          0
        end
        else
          match List.filter (fun p -> p <> 0) runnable with
          | [] -> List.hd runnable
          | others -> List.nth others (v.Mm_sim.Sched.now mod List.length others))
  in
  let o =
    Omega.run ~seed:3 ~timely:[ (2, 4) ] ~sched_base:starving_base
      ~crashes:[ (0, 140_000) ] ~warmup:150_000 ~variant:Omega.Reliable ~n:4 ()
  in
  Alcotest.(check bool) "converged" true (Omega.holds o);
  match o.Omega.agreed_leader with
  | Some l -> Alcotest.(check bool) "starved process lost" true (l <> 0)
  | None -> Alcotest.fail "no agreed leader"

let test_reliable_steady_state_silent () =
  (* Theorem 5.1: eventually no messages are sent, the leader only writes
     its own STATE register, others only read. *)
  let o = Omega.run ~seed:7 ~variant:Omega.Reliable ~n:5 () in
  Alcotest.(check bool) "converged" true (Omega.holds o);
  Alcotest.(check int) "no messages in steady state" 0 (sum_window_messages o);
  let l = Option.get o.Omega.agreed_leader in
  Array.iteri
    (fun i c ->
      if i = l then begin
        Alcotest.(check bool) "leader writes" true (c.Mem.writes_local > 0);
        Alcotest.(check int) "leader reads nothing" 0
          (c.Mem.reads_local + c.Mem.reads_remote);
        Alcotest.(check int) "leader writes only locally" 0 c.Mem.writes_remote
      end
      else if not o.Omega.run.crashed.(i) then begin
        Alcotest.(check bool) "follower reads" true (c.Mem.reads_remote > 0);
        Alcotest.(check int) "follower never writes" 0
          (c.Mem.writes_local + c.Mem.writes_remote)
      end)
    o.Omega.window_mem

let test_lossy_elects () =
  for seed = 1 to 3 do
    let o = Omega.run ~seed ~variant:(Omega.Fair_lossy 0.3) ~n:4 () in
    Alcotest.(check bool)
      (Printf.sprintf "omega holds under loss (seed %d)" seed)
      true (Omega.holds o)
  done

let test_lossy_heavy_loss () =
  let o =
    Omega.run ~seed:5 ~warmup:120_000 ~variant:(Omega.Fair_lossy 0.8) ~n:3 ()
  in
  Alcotest.(check bool) "omega holds at 80% loss" true (Omega.holds o)

let test_lossy_steady_state () =
  (* Theorem 5.2: in steady state no messages; the leader writes AND
     reads registers (the NOTIFICATIONS check); others read. *)
  let o = Omega.run ~seed:11 ~variant:(Omega.Fair_lossy 0.2) ~n:4 () in
  Alcotest.(check bool) "converged" true (Omega.holds o);
  Alcotest.(check int) "no steady-state messages" 0 (sum_window_messages o);
  let l = Option.get o.Omega.agreed_leader in
  let c = o.Omega.window_mem.(l) in
  Alcotest.(check bool) "leader writes" true (c.Mem.writes_local > 0);
  Alcotest.(check bool) "leader reads" true
    (c.Mem.reads_local + c.Mem.reads_remote > 0)

let test_locality () =
  (* §5.3: the leader's steady-state accesses are all local (it owns
     STATE[l] and NOTIFICATIONS[l]); follower accesses are remote. *)
  List.iter
    (fun variant ->
      let o = Omega.run ~seed:13 ~variant ~n:4 () in
      Alcotest.(check bool) "converged" true (Omega.holds o);
      let l = Option.get o.Omega.agreed_leader in
      Array.iteri
        (fun i c ->
          if i = l then
            Alcotest.(check int) "leader remote ops" 0
              (c.Mem.reads_remote + c.Mem.writes_remote)
          else if not o.Omega.run.crashed.(i) then
            Alcotest.(check int) "follower local ops" 0
              (c.Mem.reads_local + c.Mem.writes_local))
        o.Omega.window_mem)
    [ Omega.Reliable; Omega.Fair_lossy 0.2 ]

let test_leader_write_lower_bound () =
  (* Theorem 5.3 witness: the elected leader keeps writing inside the
     steady-state window — the write rate never reaches zero. *)
  let o = Omega.run ~seed:17 ~variant:Omega.Reliable ~n:4 () in
  let l = Option.get o.Omega.agreed_leader in
  Alcotest.(check bool) "leader writes forever" true
    (o.Omega.window_mem.(l).Mem.writes_local > 10)

let test_failover () =
  (* Crash the initial leader mid-run: the other timely process takes
     over and the system re-stabilizes. *)
  let o =
    Omega.run ~seed:19 ~timely:[ (0, 4); (1, 4) ]
      ~crashes:[ (0, 30_000) ] ~warmup:150_000 ~variant:Omega.Reliable ~n:4 ()
  in
  Alcotest.(check bool) "re-converged" true (Omega.holds o);
  (match o.Omega.agreed_leader with
  | Some l -> Alcotest.(check bool) "new leader is correct" true (l <> 0)
  | None -> Alcotest.fail "no agreed leader after failover");
  Alcotest.(check bool) "failover happened after crash" true
    (o.Omega.last_change_step >= 30_000)

let test_lossy_failover () =
  let o =
    Omega.run ~seed:23 ~timely:[ (0, 4); (2, 4) ]
      ~crashes:[ (0, 30_000) ] ~warmup:200_000
      ~variant:(Omega.Fair_lossy 0.3) ~n:4 ()
  in
  Alcotest.(check bool) "re-converged under loss" true (Omega.holds o);
  match o.Omega.agreed_leader with
  | Some l -> Alcotest.(check bool) "correct leader" true (not o.Omega.run.crashed.(l))
  | None -> Alcotest.fail "no agreed leader"

let test_no_timely_process_no_guarantee () =
  (* Sanity direction check: the analysis needs a timely process; with
     none declared, convergence may still happen by luck under a fair
     random scheduler, so we only check that the run completes without
     violating anything (no exceptions, outputs well-formed). *)
  let o = Omega.run ~seed:29 ~timely:[] ~variant:Omega.Reliable ~n:4 () in
  Array.iter
    (function
      | Some l -> Alcotest.(check bool) "leader id in range" true (l >= 0 && l < 4)
      | None -> ())
    o.Omega.final_leaders

let test_leader_memory_failure_reliable () =
  (* The leader's host memory wedges read-only mid-run (the process keeps
     running!): its heartbeat freezes from everyone else's viewpoint, so
     the followers time out and elect a new leader; the old leader learns
     about the winner through a notification MESSAGE and defers.  The
     reliable-links variant therefore tolerates partial memory failure. *)
  (* Discover who wins under this seed, then rerun failing THAT host. *)
  let dry =
    Omega.run ~seed:31 ~timely:[ (0, 4); (1, 4) ] ~variant:Omega.Reliable
      ~n:4 ()
  in
  let victim = Option.get dry.Omega.agreed_leader in
  let o =
    Omega.run ~seed:31 ~timely:[ (0, 4); (1, 4) ]
      ~memory_failures:[ (victim, 20_000) ] ~warmup:200_000
      ~variant:Omega.Reliable ~n:4 ()
  in
  Alcotest.(check bool) "re-converged" true (Omega.holds o);
  (match o.Omega.agreed_leader with
  | Some l ->
    Alcotest.(check bool) "moved off the failed host" true (l <> victim)
  | None -> Alcotest.fail "no agreed leader");
  Alcotest.(check bool) "failover after the failure" true
    (o.Omega.last_change_step >= 20_000)

let test_leader_memory_failure_lossy_variant_stuck () =
  (* The fair-lossy variant's notification channel IS shared memory: with
     the old leader's registers omission-faulty, NOTIFIES[0][*] writes are
     lost, the old leader never learns a new leader exists, and keeps
     electing itself — Ω fails (no common leader including p0).  A memory
     failure the message-based mechanism survives kills the
     register-based one: the §6 open question has real bite. *)
  let dry =
    Omega.run ~seed:31 ~timely:[ (0, 4); (1, 4) ]
      ~variant:(Omega.Fair_lossy 0.2) ~n:4 ()
  in
  let victim = Option.get dry.Omega.agreed_leader in
  Alcotest.(check bool) "stable before the failure point" true
    (dry.Omega.last_change_step < 20_000);
  let o =
    Omega.run ~seed:31 ~timely:[ (0, 4); (1, 4) ]
      ~memory_failures:[ (victim, 20_000) ] ~warmup:200_000
      ~variant:(Omega.Fair_lossy 0.2) ~n:4 ()
  in
  Alcotest.(check bool) "old leader is stuck on itself" false (Omega.holds o);
  Alcotest.(check (option int)) "it still thinks it leads" (Some victim)
    o.Omega.final_leaders.(victim)

(* --- register failure detector (the reusable Ω-hint component) --- *)

module Fd = Mm_election.Register_fd
module Engine = Mm_sim.Engine
module Id = Mm_core.Id
module Proc = Mm_sim.Proc

let run_fd ~seed ~n ~crashes ~steps =
  let eng =
    Engine.create ~seed ~domain:(Mm_core.Domain.full n)
      ~link:Net.Reliable ~n ()
  in
  let alive = Fd.registers (Engine.store eng) ~pids:(Array.init n Id.of_int) ~prefix:"" in
  let leaders = Array.make n (-1) in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      Engine.spawn eng p (fun () ->
          let det = Fd.create alive ~me:pi in
          let rec go () =
            Fd.step det;
            leaders.(pi) <- Fd.leader det;
            Proc.yield ();
            go ()
          in
          go ()))
    (Id.all n);
  List.iter (fun (pid, step) -> Engine.crash_at eng (Id.of_int pid) step) crashes;
  ignore (Engine.run eng ~max_steps:steps ());
  leaders

let test_fd_stabilizes_on_smallest () =
  let leaders = run_fd ~seed:1 ~n:4 ~crashes:[] ~steps:30_000 in
  Array.iter (fun l -> Alcotest.(check int) "leader 0" 0 l) leaders

let test_fd_skips_crashed () =
  let leaders = run_fd ~seed:2 ~n:4 ~crashes:[ (0, 0); (1, 500) ] ~steps:60_000 in
  (* correct processes 2, 3 settle on 2 *)
  Alcotest.(check int) "p2 elects 2" 2 leaders.(2);
  Alcotest.(check int) "p3 elects 2" 2 leaders.(3)

let test_fd_no_messages () =
  let eng =
    Engine.create ~seed:3 ~domain:(Mm_core.Domain.full 3)
      ~link:Net.Reliable ~n:3 ()
  in
  let alive = Fd.registers (Engine.store eng) ~pids:(Array.init 3 Id.of_int) ~prefix:"" in
  List.iter
    (fun p ->
      Engine.spawn eng p (fun () ->
          let det = Fd.create alive ~me:(Id.to_int p) in
          let rec go () =
            Fd.step det;
            Proc.yield ();
            go ()
          in
          go ()))
    (Id.all 3);
  ignore (Engine.run eng ~max_steps:10_000 ());
  Alcotest.(check int) "message-free" 0
    Net.((stats (Engine.network eng)).sent)

(* A group need not be processes 0..n-1: member i's register is named by
   the prefix and member index, owned by pids.(i), shared with the rest
   of the group only. *)
let test_fd_group_layout () =
  let eng =
    Engine.create ~seed:5 ~domain:(Mm_core.Domain.full 6)
      ~link:Net.Reliable ~n:6 ()
  in
  let pids = [| Id.of_int 3; Id.of_int 4; Id.of_int 5 |] in
  let alive = Fd.registers (Engine.store eng) ~pids ~prefix:"S1/" in
  Alcotest.(check (list string)) "names" [ "S1/ALIVE[0]"; "S1/ALIVE[1]"; "S1/ALIVE[2]" ]
    (Array.to_list (Array.map Mem.name alive));
  Array.iteri
    (fun i r ->
      Alcotest.(check int) "owner" (3 + i) (Id.to_int (Mem.owner r));
      Alcotest.(check (list int)) "shared with the group" [ 3; 4; 5 ]
        (List.sort compare (List.map Id.to_int (Mem.members r))))
    alive

let test_fd_suspects_are_reported () =
  let eng =
    Engine.create ~seed:4 ~domain:(Mm_core.Domain.full 3)
      ~link:Net.Reliable ~n:3 ()
  in
  let alive = Fd.registers (Engine.store eng) ~pids:(Array.init 3 Id.of_int) ~prefix:"" in
  let final_suspects = ref [] in
  Engine.spawn eng (Id.of_int 2) (fun () ->
      let det = Fd.create alive ~me:2 in
      let rec go () =
        Fd.step det;
        final_suspects := Fd.suspects det;
        Proc.yield ();
        go ()
      in
      go ());
  Engine.crash_at eng (Id.of_int 0) 0;
  Engine.crash_at eng (Id.of_int 1) 0;
  ignore (Engine.run eng ~max_steps:20_000 ());
  Alcotest.(check (list int)) "both crashed peers suspected" [ 0; 1 ]
    !final_suspects

(* --- message-passing baseline --- *)

let test_mp_omega_stable_with_timely_links () =
  let o = Mp.run ~seed:1 ~delay:(Net.Fixed 2) ~n:4 () in
  Alcotest.(check bool) "stable under short fixed delays" true (Omega.holds o)

let test_mp_omega_never_silent () =
  let o = Mp.run ~seed:1 ~delay:(Net.Fixed 2) ~n:4 () in
  Alcotest.(check bool) "heartbeats keep flowing" true
    (o.Omega.window_net.Net.sent > 100)

let test_mp_omega_flaps_under_async_links () =
  (* Delays an order of magnitude beyond the timeout: the baseline keeps
     suspecting and re-trusting — no stable leader — while the m&m
     algorithm under the very same delays is unaffected. *)
  let delay = Net.Uniform (1, 600) in
  let mp = Mp.run ~seed:3 ~timeout:32 ~delay ~n:4 () in
  Alcotest.(check bool) "baseline unstable" false (Omega.holds mp);
  let mm = Omega.run ~seed:3 ~delay ~variant:Omega.Reliable ~n:4 () in
  Alcotest.(check bool) "m&m stable under same delays" true (Omega.holds mm)

let test_mp_omega_crash_failover () =
  let o =
    Mp.run ~seed:5 ~delay:(Net.Fixed 2) ~crashes:[ (0, 20_000) ]
      ~warmup:100_000 ~n:4 ()
  in
  Alcotest.(check bool) "re-stabilizes" true (Omega.holds o);
  match o.Omega.agreed_leader with
  | Some l -> Alcotest.(check bool) "not the crashed one" true (l <> 0)
  | None -> Alcotest.fail "no leader"

let () =
  Alcotest.run "mm_election"
    [
      ( "reliable",
        [
          Alcotest.test_case "elects" `Quick test_reliable_elects;
          Alcotest.test_case "untimely loses" `Quick test_untimely_process_loses_leadership;
          Alcotest.test_case "steady state silent" `Quick
            test_reliable_steady_state_silent;
          Alcotest.test_case "failover" `Quick test_failover;
        ] );
      ( "fair-lossy",
        [
          Alcotest.test_case "elects" `Quick test_lossy_elects;
          Alcotest.test_case "heavy loss" `Quick test_lossy_heavy_loss;
          Alcotest.test_case "steady state" `Quick test_lossy_steady_state;
          Alcotest.test_case "failover" `Quick test_lossy_failover;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "locality (§5.3)" `Quick test_locality;
          Alcotest.test_case "leader writes forever (Thm 5.3)" `Quick
            test_leader_write_lower_bound;
          Alcotest.test_case "no timely process" `Quick
            test_no_timely_process_no_guarantee;
          Alcotest.test_case "memory failure (reliable survives)" `Quick
            test_leader_memory_failure_reliable;
          Alcotest.test_case "memory failure (lossy variant stuck)" `Quick
            test_leader_memory_failure_lossy_variant_stuck;
        ] );
      ( "register-fd",
        [
          Alcotest.test_case "stabilizes on smallest" `Quick
            test_fd_stabilizes_on_smallest;
          Alcotest.test_case "skips crashed" `Quick test_fd_skips_crashed;
          Alcotest.test_case "message-free" `Quick test_fd_no_messages;
          Alcotest.test_case "suspects" `Quick test_fd_suspects_are_reported;
          Alcotest.test_case "group layout" `Quick test_fd_group_layout;
        ] );
      ( "mp-baseline",
        [
          Alcotest.test_case "stable with timely links" `Quick
            test_mp_omega_stable_with_timely_links;
          Alcotest.test_case "never silent" `Quick test_mp_omega_never_silent;
          Alcotest.test_case "flaps under async links" `Quick
            test_mp_omega_flaps_under_async_links;
          Alcotest.test_case "crash failover" `Quick test_mp_omega_crash_failover;
        ] );
    ]
