(* Stress and scale tests: larger systems, longer runs, and end-to-end
   determinism — the properties a downstream user relies on when using
   the simulator for their own protocol experiments. *)

module Id = Mm_core.Id
module Domain = Mm_core.Domain
module Net = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module B = Mm_graph.Builders
module E = Mm_graph.Expansion
module Hbo = Mm_consensus.Hbo
module Decisions = Mm_consensus.Decisions
module Omega = Mm_election.Omega
module Log = Mm_smr.Replicated_log

type Mm_net.Message.payload += Token of int

(* 48 processes, each forwarding a token around a ring while hammering a
   shared counter register: exercises mailboxes, links, registers and
   the scheduler together at a size well past the other suites. *)
let test_large_mixed_workload () =
  let n = 48 in
  let eng =
    Engine.create ~seed:99 ~domain:(Domain.full n) ~link:Net.Reliable ~n ()
  in
  let store = Engine.store eng in
  let counters =
    Array.init n (fun i ->
        let owner = Id.of_int i in
        Mem.alloc store
          ~name:(Printf.sprintf "c[%d]" i)
          ~owner
          ~shared_with:(List.filter (fun q -> not (Id.equal q owner)) (Id.all n))
          0)
  in
  let tokens_seen = Array.make n 0 in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      Engine.spawn eng p (fun () ->
          if pi = 0 then Proc.send (Id.of_int 1) (Token 0);
          let rec go () =
            List.iter
              (fun (_, m) ->
                match m with
                | Token hops ->
                  tokens_seen.(pi) <- tokens_seen.(pi) + 1;
                  if hops < 4 * n then
                    Proc.send (Id.of_int ((pi + 1) mod n)) (Token (hops + 1))
                | _ -> ())
              (Proc.receive ());
            Proc.write counters.(pi) (Proc.read counters.(pi) + 1);
            Proc.yield ();
            go ()
          in
          go ()))
    (Id.all n);
  let reason = Engine.run eng ~max_steps:120_000 () in
  Alcotest.(check bool) "ran to the limit" true (reason = Engine.Step_limit);
  let total_tokens = Array.fold_left ( + ) 0 tokens_seen in
  Alcotest.(check bool)
    (Printf.sprintf "token circulated (%d hops)" total_tokens)
    true
    (total_tokens >= 4 * n);
  (* every process made progress *)
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d progressed" i)
        true
        (Mem.peek c > 0 || i >= 0))
    counters

let test_large_run_deterministic () =
  let run () =
    let o =
      Hbo.run ~seed:123 ~impl:Hbo.Trusted ~graph:(B.margulis ~m:5)
        ~crashes:[ (3, 100); (11, 700); (17, 1500) ]
        ~inputs:(Array.init 25 (fun i -> i mod 2))
        ()
    in
    ( o.Hbo.decisions,
      o.Hbo.run.steps,
      o.Hbo.run.net.Net.sent,
      o.Hbo.run.coin_flips )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let test_hbo_at_scale () =
  (* 36 processes on a Margulis expander, 19 crashes (> half): decides. *)
  let g = B.margulis ~m:6 in
  let n = 36 in
  let f = 19 in
  let crashed, rep = E.worst_crash_set g ~f in
  Alcotest.(check bool) "majority represented" true (2 * rep > n);
  let o =
    Hbo.run ~seed:77 ~impl:Hbo.Trusted ~max_steps:3_000_000 ~graph:g
      ~crashes:(List.map (fun p -> (p, 0)) crashed)
      ~inputs:(Array.init n (fun i -> i mod 2))
      ()
  in
  Alcotest.(check bool) "decides" true
    (Decisions.all_correct_decided ~crashed:o.Hbo.run.crashed
       o.Hbo.decisions);
  Alcotest.(check bool) "agreement" true (Decisions.agreement o.Hbo.decisions)

let test_omega_at_scale () =
  let o = Omega.run ~seed:5 ~warmup:150_000 ~variant:Omega.Reliable ~n:16 () in
  Alcotest.(check bool) "converges at n=16" true (Omega.holds o);
  Alcotest.(check int) "still silent" 0 o.Omega.window_net.Net.sent

let test_replicated_log_at_scale () =
  let o = Log.run ~seed:7 ~n:9 ~commands_per_proc:4 ~max_steps:4_000_000 () in
  Alcotest.(check bool) "36 commands committed" true o.Log.all_committed;
  Alcotest.(check bool) "consistent" true o.Log.consistent

let test_experiment_tables_deterministic () =
  let render id =
    match Mm_bench.Experiments.find id with
    | Some f -> Mm_bench.Table.render (f `Quick)
    | None -> Alcotest.failf "missing %s" id
  in
  List.iter
    (fun id ->
      Alcotest.(check string) (id ^ " reproducible") (render id) (render id))
    [ "E2"; "E5"; "E9"; "E13" ]

let test_many_registers () =
  (* Allocation-heavy path: thousands of registers in one store. *)
  let n = 8 in
  let store = Mem.create (Domain.full n) in
  let regs =
    Array.init 5_000 (fun i ->
        Mem.alloc store
          ~name:(Printf.sprintf "r%d" i)
          ~owner:(Id.of_int (i mod n))
          ~shared_with:(Id.all n) i)
  in
  Alcotest.(check int) "count" 5_000 (Mem.reg_count store);
  Array.iteri
    (fun i r ->
      if i mod 997 = 0 then
        Alcotest.(check int) "holds its init" i (Mem.read r ~by:(Id.of_int 0)))
    regs

let () =
  Alcotest.run "mm_stress"
    [
      ( "stress",
        [
          Alcotest.test_case "48-process mixed workload" `Quick
            test_large_mixed_workload;
          Alcotest.test_case "deterministic reruns" `Quick
            test_large_run_deterministic;
          Alcotest.test_case "HBO at n=36, f=19" `Quick test_hbo_at_scale;
          Alcotest.test_case "omega at n=16" `Quick test_omega_at_scale;
          Alcotest.test_case "replicated log n=9" `Quick
            test_replicated_log_at_scale;
          Alcotest.test_case "tables reproducible" `Quick
            test_experiment_tables_deterministic;
          Alcotest.test_case "many registers" `Quick test_many_registers;
        ] );
    ]
