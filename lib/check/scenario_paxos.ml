module Rng = Mm_rng.Rng
module Paxos = Mm_consensus.Paxos

let name = "paxos"
let doc = "shared-memory Paxos: agreement/validity under crashes + unstable oracles"
let default_budget = 100

type cfg = { plan : Fault_plan.spec; trace_tail : int }

type trial = { inputs : int array; oracle : Paxos.oracle; plan : Fault_plan.t }

type outcome = Paxos.outcome

let oracle_desc = function
  | Paxos.Heartbeat -> "heartbeat"
  | Paxos.Anarchy -> "anarchy"
  | Paxos.Static l -> "static(p" ^ Mm_core.Decimal.of_int l ^ ")"

(* No drops — Paxos messages are not retransmitted.  Restarted
   proposers re-read their own block and the decision register, so
   agreement must hold across any window. *)
let cfg_of_params (p : Scenario.params) =
  let n = p.Scenario.n in
  {
    plan =
      Fault_plan.spec p ~n
        ~crashes:
          (Fault_plan.drawn p ~n ~native_default:(lazy (max 0 (n - 1)))
             ~default_window:2_000)
        ~max_steps:(Option.value p.Scenario.max_steps ~default:200_000);
    trace_tail = p.Scenario.trace_tail;
  }

let preamble _ = None

(* Draw order is the replay contract; never reorder. *)
let gen (cfg : cfg) rng =
  let n = cfg.plan.n in
  let inputs = Array.init n (fun _ -> Rng.int rng 1_000) in
  let oracle =
    match Rng.int rng 4 with
    | 0 | 1 -> Paxos.Heartbeat
    | 2 -> Paxos.Anarchy
    | _ -> Paxos.Static (Rng.int rng n)
  in
  { inputs; oracle; plan = Fault_plan.draw cfg.plan rng }

let execute ?arena:_ (cfg : cfg) (t : trial) =
  let max_steps, sched = Fault_plan.sched cfg.plan t.plan in
  Paxos.run ~seed:t.plan.engine_seed ~oracle:t.oracle ~max_steps
    ~trace_capacity:cfg.trace_tail ~crashes:t.plan.crashes
    ?prepare:(Fault_plan.prepare t.plan) ~backend:cfg.plan.backend ~sched
    ~n:cfg.plan.n ~inputs:t.inputs ()

(* Safety holds on every trial — dueling Anarchy leaders included.
   Termination needs a fair schedule, no crashes (a dead Static leader
   never proposes) and a stabilizing oracle. *)
let monitors (cfg : cfg) (t : trial) =
  Fault_plan.resilience cfg.plan (fun (o : outcome) -> o.Paxos.run)
  @ ( "paxos-agreement",
      fun (o : outcome) -> Monitor.agreement o.Paxos.decisions )
  :: ( "paxos-validity",
       fun (o : outcome) ->
         Monitor.validity ~inputs:t.inputs o.Paxos.decisions )
  ::
  (if t.plan.k = 0 && t.plan.crashes = [] && t.oracle <> Paxos.Anarchy
   then
     if t.plan.restarts = [] then
       [ ("paxos-termination", Monitor.paxos_termination) ]
     else
       (* Same predicate, stronger reading: restarted proposers rebuild
          their ballot state from the registers and still decide. *)
       [ ("recovery-liveness", Monitor.paxos_termination) ]
   else [])

let config (cfg : cfg) (t : trial) =
  Config.str "inputs"
    (String.concat " " (Array.to_list (Array.map string_of_int t.inputs)))
  :: Config.str "oracle" (oracle_desc t.oracle)
  :: Fault_plan.config cfg.plan t.plan
       ~between:
         [ Config.str "backend" (Mm_mem.Mem.Backend.name cfg.plan.backend) ]

let shrink (cfg : cfg) ~still_fails (t : trial) =
  Fault_plan.shrink cfg.plan
    ~still_fails:(fun plan -> still_fails { t with plan })
    t.plan

let trace (o : outcome) = o.Paxos.run.trace
