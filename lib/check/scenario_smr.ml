module Rng = Mm_rng.Rng
module Log = Mm_smr.Replicated_log

let name = "smr"
let doc = "replicated log: slot consistency, prefix agreement, commitment"
let default_budget = 40

type cfg = {
  plan : Fault_plan.spec;
  commands : int option; (* None: drawn per trial *)
  trace_tail : int;
}

type trial = { commands : int; plan : Fault_plan.t }

type outcome = Log.outcome

(* No drops — log messages are not retransmitted. *)
let cfg_of_params (p : Scenario.params) =
  let n = p.Scenario.n in
  {
    plan =
      Fault_plan.spec p ~n
        ~crashes:
          (Fault_plan.drawn p ~n ~native_default:(lazy (max 0 (n - 1)))
             ~default_window:2_000)
        ~max_steps:(Option.value p.Scenario.max_steps ~default:400_000);
    commands = p.Scenario.commands;
    trace_tail = p.Scenario.trace_tail;
  }

let preamble _ = None

(* Draw order is the replay contract; never reorder. *)
let gen (cfg : cfg) rng =
  let commands =
    match cfg.commands with Some c -> c | None -> 1 + Rng.int rng 3
  in
  { commands; plan = Fault_plan.draw cfg.plan rng }

let execute ?arena:_ (cfg : cfg) (t : trial) =
  let max_steps, sched = Fault_plan.sched cfg.plan t.plan in
  Log.run ~seed:t.plan.engine_seed ~max_steps ~trace_capacity:cfg.trace_tail
    ~crashes:t.plan.crashes ?prepare:(Fault_plan.prepare t.plan)
    ~backend:cfg.plan.backend ~sched ~n:cfg.plan.n
    ~commands_per_proc:t.commands ()

(* Safety (slot consistency + prefix agreement) holds on every trial;
   full commitment needs a fair schedule and no crashes (recovery after
   a leader crash can outlast any fixed sweep budget). *)
let monitors (cfg : cfg) (t : trial) =
  Fault_plan.resilience cfg.plan (fun (o : outcome) -> o.Log.run)
  @ ("smr-consistent", Monitor.smr_consistent)
  :: ("smr-prefix", Monitor.smr_prefix)
  ::
  (if t.plan.k = 0 && t.plan.crashes = [] then
     if t.plan.restarts = [] then
       [ ("smr-committed", Monitor.smr_committed) ]
     else
       (* Same predicate, stronger reading: restarted replicas must
          replay the decided prefix and still commit everything. *)
       [ ("recovery-liveness", Monitor.smr_committed) ]
   else [])

let config (cfg : cfg) (t : trial) =
  Config.int "commands" t.commands
  :: Fault_plan.config cfg.plan t.plan
       ~between:
         [ Config.str "backend" (Mm_mem.Mem.Backend.name cfg.plan.backend) ]

let shrink (cfg : cfg) ~still_fails (t : trial) =
  Fault_plan.shrink cfg.plan
    ~still_fails:(fun plan -> still_fails { t with plan })
    t.plan

let trace (o : outcome) = o.Log.run.trace
