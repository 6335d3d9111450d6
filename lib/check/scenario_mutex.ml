module Rng = Mm_rng.Rng
module Mutex = Mm_mutex.Mutex

let name = "mutex"
let doc = "mutual exclusion: safety, progress, and the no-spin invariant (§1)"
let default_budget = 100

type cfg = {
  plan : Fault_plan.spec;
  entries : int option; (* None: drawn per trial *)
  trace_tail : int;
}

type trial = {
  algo : Mutex.algo;
  entries : int;
  cs_work : int;
  plan : Fault_plan.t;
}

type outcome = Mutex.outcome

let algo_desc : Mutex.algo -> string = function
  | Bakery -> "bakery"
  | Local_spin -> "local-spin"
  | Mm -> "mm"

(* No crashes and no restart windows.  Freeze/thaw across lock handoffs
   is the interesting adversary here; drops would break the wake-up
   message. *)
let cfg_of_params (p : Scenario.params) =
  let max_steps = Option.value p.Scenario.max_steps ~default:200_000 in
  {
    plan =
      {
        (Fault_plan.spec p ~n:p.Scenario.n ~crashes:Fault_plan.No_crashes
           ~max_steps)
        with
        restarts = false;
      };
    entries = p.Scenario.entries;
    trace_tail = p.Scenario.trace_tail;
  }

let preamble _ = None

(* Draw order is the replay contract; never reorder. *)
let gen (cfg : cfg) rng =
  let algo =
    match Rng.int rng 3 with
    | 0 -> Mutex.Bakery
    | 1 -> Mutex.Local_spin
    | _ -> Mutex.Mm
  in
  let entries =
    match cfg.entries with Some e -> e | None -> 1 + Rng.int rng 3
  in
  let cs_work = 1 + Rng.int rng 6 in
  { algo; entries; cs_work; plan = Fault_plan.draw cfg.plan rng }

let execute ?arena:_ (cfg : cfg) (t : trial) =
  let max_steps, sched = Fault_plan.sched cfg.plan t.plan in
  Mutex.run ~algo:t.algo ~seed:t.plan.engine_seed ~max_steps ~cs_work:t.cs_work
    ~trace_capacity:cfg.trace_tail ?prepare:(Fault_plan.prepare t.plan)
    ~backend:cfg.plan.backend ~sched ~n:cfg.plan.n ~entries:t.entries ()

(* Exclusion is asserted always; the §1 no-spin invariant only applies
   to the m&m lock (the spinning locks spin by design); progress needs
   a fair schedule. *)
(* Mutex draws no crashes, so under the emulated backend the
   resilience monitor is a pure accounting guard: any blocked op with
   every host up is an emulation bug. *)
let monitors (cfg : cfg) (t : trial) =
  Fault_plan.resilience cfg.plan (fun (o : outcome) -> o.Mutex.run)
  @ ("mutex-exclusion", Monitor.mutex_exclusion)
  :: ((if t.algo = Mutex.Mm then [ ("mutex-no-spin", Monitor.mutex_no_spin) ]
       else [])
     @
     if t.plan.k = 0 then
       [ ("mutex-progress", Monitor.mutex_progress ~entries:t.entries) ]
     else [])

let config (cfg : cfg) (t : trial) =
  Config.str "algo" (algo_desc t.algo)
  :: Config.int "entries" t.entries
  :: Config.int "cs-work" t.cs_work
  :: Fault_plan.config cfg.plan t.plan
       ~between:
         [ Config.str "backend" (Mm_mem.Mem.Backend.name cfg.plan.backend) ]

(* The entry count shrinks first, then the fault plan. *)
let shrink (cfg : cfg) ~still_fails (t : trial) =
  let entries =
    if t.entries <= 1 then t.entries
    else
      Shrink.int_min
        ~still_fails:(fun entries -> still_fails { t with entries })
        ~lo:1 t.entries
  in
  Config.int "entries" entries
  :: Fault_plan.shrink cfg.plan
       ~still_fails:(fun plan -> still_fails { t with entries; plan })
       t.plan

let trace (o : outcome) = o.Mutex.run.trace
