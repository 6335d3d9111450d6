(* Tests for the consensus stack: adopt-commit, randomized register
   consensus, Ben-Or, HBO and the pure shared-memory baseline.  These are
   the executable versions of Theorems 4.1-4.3. *)

module Id = Mm_core.Id
module Domain = Mm_core.Domain
module B = Mm_graph.Builders
module G = Mm_graph.Graph
module E = Mm_graph.Expansion
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Sched = Mm_sim.Sched
module AC = Mm_consensus.Adopt_commit
module RC = Mm_consensus.Rand_consensus
module Hbo = Mm_consensus.Hbo
module Decisions = Mm_consensus.Decisions
module Ben_or = Mm_consensus.Ben_or
module Sm = Mm_consensus.Sm_consensus

(* Every process that never crashed decided. *)
let decided (o : Hbo.outcome) =
  Decisions.all_correct_decided ~crashed:o.Hbo.run.crashed o.Hbo.decisions

let sm_decided (o : Sm.outcome) =
  Decisions.all_correct_decided ~crashed:o.Sm.run.crashed o.Sm.decisions

(* --- adopt-commit --- *)

(* Run k processes through one adopt-commit object under a seeded random
   schedule and return their results. *)
let run_adopt_commit ~seed ~inputs =
  let n = Array.length inputs in
  let eng =
    Engine.create ~seed ~domain:(Domain.full n) ~link:Network.Reliable ~n ()
  in
  let obj =
    AC.create (Engine.store eng) ~name:"ac" ~owner:(Id.of_int 0)
      ~participants:(Id.all n)
  in
  let results = Array.make n None in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      Engine.spawn eng p (fun () ->
          results.(pi) <- Some (AC.run obj inputs.(pi))))
    (Id.all n);
  let reason = Engine.run eng ~max_steps:100_000 () in
  assert (reason = Engine.Quiescent);
  Array.map Option.get results

let outcome_value = function
  | AC.Commit v | AC.Adopt v | AC.Free v -> v

let test_ac_convergence () =
  (* All propose the same value: everyone commits it. *)
  let rs = run_adopt_commit ~seed:1 ~inputs:[| 5; 5; 5; 5 |] in
  Array.iter
    (fun r ->
      match r.AC.outcome with
      | AC.Commit 5 -> ()
      | _ -> Alcotest.fail "expected Commit 5")
    rs

let test_ac_validity () =
  for seed = 0 to 30 do
    let inputs = [| seed mod 2; (seed / 2) mod 2; 1 |] in
    let rs = run_adopt_commit ~seed ~inputs in
    Array.iter
      (fun r ->
        let v = outcome_value r.AC.outcome in
        Alcotest.(check bool) "valid" true (Array.exists (Int.equal v) inputs))
      rs
  done

let test_ac_coherence () =
  (* Over many seeds: if anyone commits v, every outcome carries v. *)
  for seed = 0 to 100 do
    let inputs = [| 0; 1; 0; 1; 1 |] in
    let rs = run_adopt_commit ~seed ~inputs in
    let committed =
      Array.to_list rs
      |> List.filter_map (fun r ->
             match r.AC.outcome with AC.Commit v -> Some v | _ -> None)
    in
    match committed with
    | [] -> ()
    | v :: _ ->
      Array.iter
        (fun r ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d coherent" seed)
            v
            (outcome_value r.AC.outcome))
        rs
  done

let test_ac_wait_free () =
  (* A participant running alone (others crashed before starting) still
     finishes. *)
  let n = 4 in
  let eng =
    Engine.create ~seed:7 ~domain:(Domain.full n) ~link:Network.Reliable ~n ()
  in
  let obj =
    AC.create (Engine.store eng) ~name:"ac" ~owner:(Id.of_int 0)
      ~participants:(Id.all n)
  in
  let result = ref None in
  Engine.spawn eng (Id.of_int 3) (fun () -> result := Some (AC.run obj 9));
  List.iter (fun i -> Engine.crash_at eng (Id.of_int i) 0) [ 0; 1; 2 ];
  ignore (Engine.run eng ~max_steps:10_000 ());
  match !result with
  | Some { AC.outcome = AC.Commit 9; _ } -> ()
  | _ -> Alcotest.fail "lone participant should commit its own value"

let test_ac_rejects_non_participant () =
  let n = 3 in
  let eng =
    Engine.create ~seed:1 ~domain:(Domain.full n) ~link:Network.Reliable ~n ()
  in
  let obj =
    AC.create (Engine.store eng) ~name:"ac" ~owner:(Id.of_int 0)
      ~participants:[ Id.of_int 0; Id.of_int 1 ]
  in
  Engine.spawn eng (Id.of_int 2) (fun () -> ignore (AC.run obj 1));
  Alcotest.(check bool) "raises" true
    (try
       ignore (Engine.run eng ~max_steps:1000 ());
       false
     with Invalid_argument _ -> true)

let prop_ac_safety =
  QCheck.Test.make ~name:"adopt-commit: coherence + validity over random runs"
    ~count:150
    QCheck.(pair (int_range 0 10_000) (list_of_size (Gen.int_range 1 6) (int_range 0 2)))
    (fun (seed, input_list) ->
      QCheck.assume (input_list <> []);
      let inputs = Array.of_list input_list in
      let rs = run_adopt_commit ~seed ~inputs in
      let valid =
        Array.for_all
          (fun r -> Array.exists (Int.equal (outcome_value r.AC.outcome)) inputs)
          rs
      in
      let committed =
        Array.to_list rs
        |> List.filter_map (fun r ->
               match r.AC.outcome with AC.Commit v -> Some v | _ -> None)
      in
      let coherent =
        match committed with
        | [] -> true
        | v :: _ ->
          Array.for_all (fun r -> outcome_value r.AC.outcome = v) rs
      in
      valid && coherent)

(* --- randomized register consensus --- *)

let run_rc ~seed ~inputs ~crashes =
  let n = Array.length inputs in
  let eng =
    Engine.create ~seed ~domain:(Domain.full n) ~link:Network.Reliable ~n ()
  in
  let obj =
    RC.create (Engine.store eng) ~name:"rc" ~owner:(Id.of_int 0)
      ~participants:(Id.all n)
  in
  let results = Array.make n None in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      Engine.spawn eng p (fun () -> results.(pi) <- Some (RC.propose obj inputs.(pi))))
    (Id.all n);
  List.iter (fun (pid, step) -> Engine.crash_at eng (Id.of_int pid) step) crashes;
  let reason = Engine.run eng ~max_steps:1_000_000 () in
  (results, reason, obj)

let test_rc_agreement_validity () =
  for seed = 0 to 50 do
    let inputs = [| 0; 1; 1; 0; 1 |] in
    let results, reason, _ = run_rc ~seed ~inputs ~crashes:[] in
    Alcotest.(check bool) "terminates" true (reason = Engine.Quiescent);
    let decided = Array.to_list results |> List.filter_map Fun.id in
    Alcotest.(check int) "all decided" 5 (List.length decided);
    (match List.sort_uniq compare decided with
    | [ v ] -> Alcotest.(check bool) "valid" true (v = 0 || v = 1)
    | _ -> Alcotest.fail (Printf.sprintf "disagreement at seed %d" seed))
  done

let test_rc_tolerates_all_but_one () =
  (* n-1 crashes: the survivor still decides (wait-freedom). *)
  let inputs = [| 0; 1; 0; 1 |] in
  let results, reason, _ =
    run_rc ~seed:3 ~inputs ~crashes:[ (0, 0); (1, 0); (2, 0) ]
  in
  Alcotest.(check bool) "quiescent" true (reason = Engine.Quiescent);
  (match results.(3) with
  | Some v -> Alcotest.(check bool) "valid" true (v = 0 || v = 1)
  | None -> Alcotest.fail "survivor undecided")

let test_rc_mid_run_crashes () =
  for seed = 0 to 20 do
    let inputs = [| 0; 1; 0; 1; 1; 0 |] in
    let results, _, _ =
      run_rc ~seed ~inputs ~crashes:[ (1, 40); (4, 90) ]
    in
    let decided =
      Array.to_list results |> List.filter_map Fun.id |> List.sort_uniq compare
    in
    Alcotest.(check bool)
      (Printf.sprintf "agreement seed %d" seed)
      true
      (List.length decided <= 1)
  done

(* --- Ben-Or (message-passing baseline) --- *)

let test_ben_or_no_crashes () =
  for seed = 0 to 10 do
    let o = Ben_or.run ~seed ~n:6 ~inputs:[| 0; 1; 0; 1; 1; 0 |] () in
    Alcotest.(check bool) "terminated" true (decided o);
    Alcotest.(check bool) "agreement" true (Decisions.agreement o.Hbo.decisions);
    Alcotest.(check bool) "validity" true
      (Decisions.validity ~inputs:[| 0; 1; 0; 1; 1; 0 |] o.Hbo.decisions)
  done

let test_ben_or_unanimous_fast () =
  let o = Ben_or.run ~seed:2 ~n:5 ~inputs:[| 1; 1; 1; 1; 1 |] () in
  Alcotest.(check bool) "all decided" true (decided o);
  Array.iter
    (function
      | Some v -> Alcotest.(check int) "decides 1" 1 v
      | None -> Alcotest.fail "undecided")
    o.Hbo.decisions;
  (* Unanimous inputs decide in round 1. *)
  Alcotest.(check int) "round 1" 1 (Hbo.max_round o)

let test_ben_or_minority_crashes () =
  let o =
    Ben_or.run ~seed:5 ~n:7 ~crashes:[ (0, 0); (1, 0); (2, 0) ]
      ~inputs:[| 0; 0; 0; 1; 0; 1; 0 |] ()
  in
  Alcotest.(check bool) "terminates with f=3 < n/2" true
    (decided o);
  Alcotest.(check bool) "agreement" true (Decisions.agreement o.Hbo.decisions)

let test_ben_or_majority_crashes_block () =
  (* f = 4 >= n/2 = 3.5: Ben-Or cannot terminate; no safety violation. *)
  let o =
    Ben_or.run ~seed:5 ~n:7 ~max_steps:60_000
      ~crashes:[ (0, 0); (1, 0); (2, 0); (3, 0) ]
      ~inputs:[| 0; 0; 0; 1; 0; 1; 0 |] ()
  in
  Alcotest.(check bool) "does not decide" false (decided o);
  Alcotest.(check bool) "hits step limit" true
    (o.Hbo.run.reason = Engine.Step_limit);
  Alcotest.(check bool) "no bogus decision" true
    (Decisions.agreement o.Hbo.decisions)

let test_ben_or_uses_no_shared_memory () =
  let o = Ben_or.run ~seed:1 ~n:4 ~inputs:[| 0; 1; 1; 0 |] () in
  Alcotest.(check int) "no registers" 0 o.Hbo.registers;
  Alcotest.(check int) "no mem ops" 0 (Mem.total_ops o.Hbo.run.mem)

(* --- HBO --- *)

let test_hbo_complete_graph_trusted () =
  let inputs = [| 0; 1; 1; 0; 1; 0 |] in
  let o =
    Hbo.run ~seed:11 ~impl:Hbo.Trusted ~graph:(B.complete 6) ~inputs ()
  in
  Alcotest.(check bool) "terminates" true (decided o);
  Alcotest.(check bool) "agreement" true (Decisions.agreement o.Hbo.decisions);
  Alcotest.(check bool) "validity" true
    (Decisions.validity ~inputs o.Hbo.decisions)

let test_hbo_register_objects () =
  let inputs = [| 0; 1; 1; 0; 1; 0 |] in
  let o =
    Hbo.run ~seed:12 ~impl:Hbo.Registers ~graph:(B.ring 6) ~inputs ()
  in
  Alcotest.(check bool) "terminates" true (decided o);
  Alcotest.(check bool) "agreement" true (Decisions.agreement o.Hbo.decisions);
  Alcotest.(check bool) "validity" true
    (Decisions.validity ~inputs o.Hbo.decisions);
  Alcotest.(check bool) "uses registers" true (o.Hbo.registers > 0)

let test_hbo_direct_requires_edgeless () =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Hbo.run ~impl:Hbo.Direct ~graph:(B.ring 4) ~inputs:[| 0; 1; 0; 1 |] ());
       false
     with Invalid_argument _ -> true)

let test_hbo_beats_majority_bound () =
  (* THE headline result: on a complete graph of 7, HBO (Trusted objects)
     decides with f = 5 > n/2 crashes, where Ben-Or cannot. *)
  let inputs = [| 1; 0; 1; 0; 1; 0; 1 |] in
  let crashes = [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 0) ] in
  let o =
    Hbo.run ~seed:21 ~impl:Hbo.Trusted ~graph:(B.complete 7) ~crashes ~inputs ()
  in
  Alcotest.(check bool) "decides despite f=5 of 7" true
    (decided o);
  Alcotest.(check bool) "agreement" true (Decisions.agreement o.Hbo.decisions);
  Alcotest.(check bool) "validity" true
    (Decisions.validity ~inputs o.Hbo.decisions)

let test_hbo_beats_majority_with_registers () =
  let inputs = [| 1; 0; 1; 0; 1 |] in
  let crashes = [ (0, 0); (1, 0); (2, 0) ] in
  let o =
    Hbo.run ~seed:22 ~impl:Hbo.Registers ~graph:(B.complete 5) ~crashes ~inputs
      ()
  in
  Alcotest.(check bool) "decides despite f=3 of 5" true
    (decided o);
  Alcotest.(check bool) "agreement" true (Decisions.agreement o.Hbo.decisions)

let test_hbo_respects_representation_threshold () =
  (* Ring of 6, crash {0, 1, 2, 3}: correct = {4,5}, boundary = {0, 3},
     represented = 4 of 6 — not a majority... 2*4 > 6, it IS a majority.
     Crash {0,1,2,3} on a 6-ring: represented = {4,5} ∪ δ{4,5} = {3,0}:
     4 processes, 2*4 > 6 majority holds, so HBO decides. *)
  let g = B.ring 6 in
  Alcotest.(check bool) "majority represented" true
    (E.majority_represented g ~crashed:[ 0; 1; 2; 3 ]);
  let inputs = [| 0; 1; 0; 1; 0; 1 |] in
  let o =
    Hbo.run ~seed:23 ~impl:Hbo.Trusted ~graph:g
      ~crashes:[ (0, 0); (1, 0); (2, 0); (3, 0) ]
      ~inputs ()
  in
  Alcotest.(check bool) "decides" true (decided o);
  (* Edgeless with the same crashes: representation = 2 of 6, blocked. *)
  let o2 =
    Ben_or.run ~seed:23 ~n:6 ~max_steps:60_000
      ~crashes:[ (0, 0); (1, 0); (2, 0); (3, 0) ]
      ~inputs ()
  in
  Alcotest.(check bool) "ben-or blocked" false (decided o2)

let test_hbo_blocks_without_represented_majority () =
  (* Disjoint pair of triangles, crash one triangle entirely: correct = 3,
     boundary = 0, represented = 3 of 6: no strict majority -> no decision
     (and no safety violation). *)
  let g = B.disjoint_cliques ~cliques:2 ~k:3 in
  Alcotest.(check bool) "no majority" false
    (E.majority_represented g ~crashed:[ 0; 1; 2 ]);
  let o =
    Hbo.run ~seed:31 ~impl:Hbo.Trusted ~graph:g ~max_steps:60_000
      ~crashes:[ (0, 0); (1, 0); (2, 0) ]
      ~inputs:[| 0; 0; 0; 1; 1; 1 |] ()
  in
  Alcotest.(check bool) "blocked" false (decided o);
  Alcotest.(check bool) "safe" true (Decisions.agreement o.Hbo.decisions)

let test_hbo_mid_run_crashes_safe () =
  for seed = 0 to 8 do
    let inputs = [| 0; 1; 1; 0; 1; 0 |] in
    let o =
      Hbo.run ~seed ~impl:Hbo.Trusted ~graph:(B.ring_of_cliques ~cliques:2 ~k:3)
        ~max_steps:300_000
        ~crashes:[ (1, 100); (4, 500) ]
        ~inputs ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "agreement seed %d" seed)
      true (Decisions.agreement o.Hbo.decisions);
    Alcotest.(check bool)
      (Printf.sprintf "validity seed %d" seed)
      true (Decisions.validity ~inputs o.Hbo.decisions)
  done

let test_hbo_safe_outside_its_assumptions () =
  (* Theorems 4.1/4.2 assume reliable links.  Under fair-lossy links HBO
     may fail to decide (lost round messages are never retransmitted),
     but its safety must be unconditional. *)
  for seed = 0 to 10 do
    let inputs = [| 0; 1; 1; 0; 1 |] in
    let o =
      Hbo.run ~seed ~impl:Hbo.Trusted ~link:(Network.Fair_lossy 0.3)
        ~max_steps:80_000 ~graph:(B.ring 5) ~inputs ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "agreement under loss (seed %d)" seed)
      true (Decisions.agreement o.Hbo.decisions);
    Alcotest.(check bool) "validity under loss" true
      (Decisions.validity ~inputs o.Hbo.decisions)
  done

let test_hbo_registers_adversarial_round_robin () =
  (* The register-based objects under a deterministic lockstep schedule:
     safety and termination both hold (round-robin is benign for the
     conciliator's local coins). *)
  let inputs = [| 1; 0; 1; 0; 1; 0 |] in
  let o =
    Hbo.run ~seed:41 ~impl:Hbo.Registers
      ~sched:(Mm_sim.Sched.create Mm_sim.Sched.Round_robin)
      ~graph:(B.ring 6) ~inputs ()
  in
  Alcotest.(check bool) "decides" true (decided o);
  Alcotest.(check bool) "agreement" true (Decisions.agreement o.Hbo.decisions)

let prop_hbo_safety_random_graphs =
  QCheck.Test.make
    ~name:"HBO: agreement+validity on random graphs, schedules, crashes"
    ~count:25
    QCheck.(triple (int_range 0 10_000) (int_range 4 8) (int_range 0 3))
    (fun (seed, n, crash_count) ->
      let rng = Mm_rng.Rng.create seed in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Mm_rng.Rng.int rng 3 = 0 then edges := (u, v) :: !edges
        done
      done;
      let g = G.create n !edges in
      let inputs = Array.init n (fun _ -> Mm_rng.Rng.int rng 2) in
      (* Distinct pids: crash_at rejects conflicting schedules for the
         same process, so (i * 2) mod n must not wrap into a duplicate. *)
      let crashes =
        let pids =
          List.sort_uniq compare
            (List.init crash_count (fun i -> (i * 2) mod n))
        in
        List.map (fun p -> (p, Mm_rng.Rng.int rng 2000)) pids
      in
      let o =
        Hbo.run ~seed ~impl:Hbo.Trusted ~graph:g ~max_steps:150_000 ~crashes
          ~inputs ()
      in
      Decisions.agreement o.Hbo.decisions
      && Decisions.validity ~inputs o.Hbo.decisions)

(* --- pure shared-memory baseline --- *)

let test_sm_consensus_basic () =
  let o = Sm.run ~seed:1 ~n:5 ~inputs:[| 1; 0; 1; 0; 1 |] () in
  Alcotest.(check bool) "decided" true (sm_decided o);
  Alcotest.(check bool) "agreement" true (Decisions.agreement o.Sm.decisions);
  Alcotest.(check int) "no messages" 0 o.Sm.run.net.Mm_net.Network.sent

let test_sm_consensus_n_minus_1_crashes () =
  let o =
    Sm.run ~seed:2 ~n:5 ~crashes:[ (0, 0); (1, 0); (2, 0); (3, 0) ]
      ~inputs:[| 1; 0; 1; 0; 1 |] ()
  in
  Alcotest.(check bool) "lone survivor decides" true (sm_decided o)

let () =
  Alcotest.run "mm_consensus"
    [
      ( "adopt-commit",
        [
          Alcotest.test_case "convergence" `Quick test_ac_convergence;
          Alcotest.test_case "validity" `Quick test_ac_validity;
          Alcotest.test_case "coherence" `Quick test_ac_coherence;
          Alcotest.test_case "wait-free" `Quick test_ac_wait_free;
          Alcotest.test_case "non-participant" `Quick test_ac_rejects_non_participant;
          QCheck_alcotest.to_alcotest prop_ac_safety;
        ] );
      ( "rand-consensus",
        [
          Alcotest.test_case "agreement+validity" `Quick test_rc_agreement_validity;
          Alcotest.test_case "n-1 crashes" `Quick test_rc_tolerates_all_but_one;
          Alcotest.test_case "mid-run crashes" `Quick test_rc_mid_run_crashes;
        ] );
      ( "ben-or",
        [
          Alcotest.test_case "no crashes" `Quick test_ben_or_no_crashes;
          Alcotest.test_case "unanimous fast" `Quick test_ben_or_unanimous_fast;
          Alcotest.test_case "minority crashes" `Quick test_ben_or_minority_crashes;
          Alcotest.test_case "majority blocks" `Quick test_ben_or_majority_crashes_block;
          Alcotest.test_case "no shared memory" `Quick test_ben_or_uses_no_shared_memory;
        ] );
      ( "hbo",
        [
          Alcotest.test_case "complete graph trusted" `Quick
            test_hbo_complete_graph_trusted;
          Alcotest.test_case "register objects" `Quick test_hbo_register_objects;
          Alcotest.test_case "direct needs edgeless" `Quick
            test_hbo_direct_requires_edgeless;
          Alcotest.test_case "beats majority bound" `Quick
            test_hbo_beats_majority_bound;
          Alcotest.test_case "beats majority (registers)" `Quick
            test_hbo_beats_majority_with_registers;
          Alcotest.test_case "representation threshold" `Quick
            test_hbo_respects_representation_threshold;
          Alcotest.test_case "blocks without majority" `Quick
            test_hbo_blocks_without_represented_majority;
          Alcotest.test_case "mid-run crashes safe" `Quick
            test_hbo_mid_run_crashes_safe;
          Alcotest.test_case "safe under lossy links" `Quick
            test_hbo_safe_outside_its_assumptions;
          Alcotest.test_case "registers + round robin" `Quick
            test_hbo_registers_adversarial_round_robin;
          QCheck_alcotest.to_alcotest prop_hbo_safety_random_graphs;
        ] );
      ( "sm-baseline",
        [
          Alcotest.test_case "basic" `Quick test_sm_consensus_basic;
          Alcotest.test_case "n-1 crashes" `Quick test_sm_consensus_n_minus_1_crashes;
        ] );
    ]
