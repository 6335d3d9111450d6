(* recovery_smoke — `dune build @recovery-smoke`: the crash-recovery
   fault model end-to-end in a few seconds.

   Two legs, each `exit 1` on failure:
   1. a 1-trial sweep of every registered scenario with restart windows
      enabled, on the native backend and again on the emulated one —
      Nemesis.gen_restarts/install, the recovery closures, and the
      durability / recovery-liveness monitors, end to end (the emulated
      leg also exercises the restarts_safe majority gate);
   2. a KV failover run: a hand-authored leader restart window plus
      per-op deadlines — the client accounting must close the books
      (every request completes or expires), retries must not
      double-apply, and every acknowledged put must be durable. *)

module B = Mm_graph.Builders
module Kv = Mm_kv.Kv
module W = Mm_kv.Workload
module Scenario = Mm_check.Scenario
module Registry = Mm_check.Registry
module Runner = Mm_check.Runner
module Nemesis = Mm_check.Nemesis
module Monitor = Mm_check.Monitor

let failed = ref false

let check name ok =
  if not ok then begin
    Printf.printf "recovery-smoke FAIL: %s\n" name;
    failed := true
  end

let params backend =
  {
    Scenario.default_params with
    graph = Some (B.complete 4);
    n = 4;
    backend;
    max_steps = Some 150_000;
    crash_window = Some 5_000;
    warmup = Some 40_000;
    window = Some 8_000;
    restarts = true;
  }

let () =
  (* Leg 1: the Scenario x backend matrix with restart windows drawn. *)
  List.iter
    (fun backend ->
      let params = params backend in
      List.iter
        (fun ((module S : Scenario.S) as sc) ->
          let r = Runner.sweep sc ~master_seed:1 ~budget:1 ~params () in
          Format.printf "%a" Runner.pp_report r;
          check
            (Printf.sprintf "%s restart sweep clean (%s)" S.name
               (Mm_mem.Mem.Backend.name backend))
            (r.Runner.violation = None))
        Registry.all)
    [ Mm_mem.Mem.Backend.Native; Mm_mem.Mem.Backend.Emulated ];
  (* Leg 2: KV failover with deadlines and a mid-run leader reboot. *)
  let spec =
    {
      W.clients = 120;
      ops = 200;
      mean_gap = 40.0;
      key_space = 64;
      theta = 0.9;
      read_fraction = 0.6;
    }
  in
  let wl = W.gen (Mm_rng.Rng.create 21) spec ~replicas:3 in
  let timeline =
    [ { Nemesis.at = 1_500; duration = 3_000; fault = Nemesis.Restart [ 0 ] } ]
  in
  let o =
    Kv.run ~seed:7 ~max_steps:900_000 ~prepare:(Nemesis.install timeline)
      ~op_timeout:2_000 ~shards:1 ~replicas:3 ~workload:wl ()
  in
  Printf.printf
    "kv failover: %d/%d completed, %d timeout(s), %d duplicate applies, %d \
     steps\n"
    o.Kv.completed spec.W.ops o.Kv.timeouts o.Kv.duplicate_applies
    o.Kv.run.steps;
  check "books closed" (o.Kv.run.reason = Mm_sim.Engine.Stopped);
  check "slot-consistent across the restart" o.Kv.consistent;
  check "linearizable across the restart"
    (Monitor.is_pass (Monitor.kv_linearizable o));
  check "acked puts durable" (Monitor.is_pass (Monitor.kv_durable o));
  if !failed then exit 1
