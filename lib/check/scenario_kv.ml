module Rng = Mm_rng.Rng
module Kv = Mm_kv.Kv
module W = Mm_kv.Workload

let name = "kv"
let doc = "sharded KV on smr: per-key linearizability, completion, recovery"
let default_budget = 40

type cfg = {
  replicas : int; (* per shard *)
  shards : int option; (* None: drawn per trial *)
  clients : int option;
  ops : int option;
  local_reads : bool;
  plan : Fault_plan.spec; (* over one shard's replicas; see [plan] *)
  settle : int;
  trace_tail : int;
}

type trial = {
  shards : int;
  clients : int;
  ops : int;
  theta : float;
  mean_gap : int;
  read_pct : int; (* percent, for display; read_fraction = read_pct / 100 *)
  key_space : int;
  wl_seed : int;
  workload : W.t;
  plan : Fault_plan.t;
}

type outcome = Kv.outcome

(* No drops — forwards are retransmitted, but the recovery monitor
   budgets for delays, not losses. *)
let cfg_of_params (p : Scenario.params) =
  let replicas = p.Scenario.n in
  let max_steps = Option.value p.Scenario.max_steps ~default:400_000 in
  {
    replicas;
    shards = p.Scenario.shards;
    clients = p.Scenario.clients;
    ops = p.Scenario.max_ops;
    local_reads = p.Scenario.local_reads;
    (* The total host count is shards x replicas, drawn per trial;
       capping the crash budget at a replica-count minority is
       therefore conservative for every drawn shard count. *)
    plan =
      Fault_plan.spec p ~n:replicas
        ~crashes:
          (Fault_plan.drawn p ~n:replicas
             ~native_default:(lazy (max 0 (replicas - 1)))
             ~default_window:2_000)
        ~max_steps;
    settle =
      (match p.Scenario.settle with
      | Some s when s <= 0 ->
        invalid_arg "kv: --settle must be a positive step count"
      | Some s -> s
      | None -> max_steps / 2);
    trace_tail = p.Scenario.trace_tail;
  }

(* The trial's fault plan ranges over every host, but its restart gate
   stays on one replica group ([quorum = replicas]) — as if every drawn
   crash landed in the window's own shard, which is conservative for
   every actual crash placement. *)
let plan (cfg : cfg) ~shards = { cfg.plan with n = shards * cfg.replicas }

let preamble _ = None

let spec_of t =
  {
    W.clients = t.clients;
    ops = t.ops;
    mean_gap = float_of_int t.mean_gap;
    key_space = t.key_space;
    theta = t.theta;
    read_fraction = float_of_int t.read_pct /. 100.0;
  }

(* Regenerate the workload from the drawn knobs.  The workload rng is
   derived from one drawn seed, so it is covered by the trial
   fingerprint, and fewer ops yield a prefix of the same request
   sequence (the shrink lever). *)
let workload_of ~replicas t =
  W.gen (Rng.create t.wl_seed) (spec_of t) ~replicas

(* Draw order is the replay contract; never reorder. *)
let gen (cfg : cfg) rng =
  let shards =
    match cfg.shards with Some s -> s | None -> 1 + Rng.int rng 2
  in
  let clients =
    match cfg.clients with Some c -> c | None -> 2 + Rng.int rng 199
  in
  let ops = match cfg.ops with Some o -> o | None -> 8 + Rng.int rng 41 in
  let theta = [| 0.0; 0.8; 1.1 |].(Rng.int rng 3) in
  let mean_gap = 4 + Rng.int rng 44 in
  let read_pct = [| 25; 50; 90 |].(Rng.int rng 3) in
  let key_space = 2 + Rng.int rng 14 in
  let wl_seed = Rng.int rng 0x3FFF_FFFF in
  let plan = Fault_plan.draw (plan cfg ~shards) rng in
  let workload =
    W.gen (Rng.create wl_seed)
      {
        W.clients;
        ops;
        mean_gap = float_of_int mean_gap;
        key_space;
        theta;
        read_fraction = float_of_int read_pct /. 100.0;
      }
      ~replicas:cfg.replicas
  in
  {
    shards;
    clients;
    ops;
    theta;
    mean_gap;
    read_pct;
    key_space;
    wl_seed;
    workload;
    plan;
  }

let execute ?arena:_ (cfg : cfg) t =
  let max_steps, sched =
    Fault_plan.sched (plan cfg ~shards:t.shards) t.plan
  in
  Kv.run ~seed:t.plan.engine_seed ~max_steps ~trace_capacity:cfg.trace_tail
    ~crashes:t.plan.crashes ?prepare:(Fault_plan.prepare t.plan)
    ~backend:cfg.plan.backend ~sched ~local_reads:cfg.local_reads
    ~shards:t.shards ~replicas:cfg.replicas ~workload:t.workload ()

(* Safety (per-shard slot consistency + per-key linearizability) holds
   on every trial; completion needs a fair schedule and no faults, and
   post-heal recovery a fair schedule and no crashes. *)
let monitors (cfg : cfg) t =
  let { Fault_plan.k; crashes; nemesis; restarts; _ } = t.plan in
  Fault_plan.resilience (plan cfg ~shards:t.shards) (fun (o : outcome) ->
      o.Kv.run)
  @ ("kv-log-consistent", Monitor.kv_log_consistent)
  :: ("kv-linearizable", Monitor.kv_linearizable)
  :: ((* Durability needs the quiescent stop (every live replica caught
         up to its shard's applied high-water mark), which only a fair
         schedule reaches reliably; a crash-stopped replica's host log
         survives, so crashes don't weaken the check. *)
      (if restarts <> [] && k = 0 then
         [ ("kv-durable", Monitor.kv_durable) ]
       else [])
     @
     if k = 0 && crashes = [] && nemesis = [] && restarts = [] then
       [ ("kv-complete", Monitor.kv_complete) ]
     else if k = 0 && crashes = [] then
       let heal_by =
         max (Nemesis.heal_step nemesis) (Nemesis.heal_step restarts)
       in
       let m = Monitor.kv_recovers ~heal_by ~settle:cfg.settle in
       if restarts = [] then [ ("kv-recovers", m) ]
       else
         (* Same predicate, stronger reading: requests orphaned by a
            restarted ingress/leader are re-claimed on recovery and must
            still complete within the settle budget of the last fault. *)
         [ ("recovery-liveness", m) ]
     else [])

let config (cfg : cfg) t =
  [
    Config.int "shards" t.shards;
    Config.int "replicas" cfg.replicas;
    Config.int "clients" t.clients;
    Config.int "ops" t.ops;
    Config.int "keys" t.key_space;
    Config.float "theta" t.theta;
    Config.int "mean-gap" t.mean_gap;
    Config.int "read-pct" t.read_pct;
    Config.bool "local-reads" cfg.local_reads;
  ]
  @ Fault_plan.config (plan cfg ~shards:t.shards) t.plan
      ~between:
        [ Config.str "backend" (Mm_mem.Mem.Backend.name cfg.plan.backend) ]

(* The op count shrinks first (fewer ops are a prefix of the same
   workload), then the fault plan. *)
let shrink (cfg : cfg) ~still_fails t =
  let with_ops t ops =
    let t = { t with ops } in
    { t with workload = workload_of ~replicas:cfg.replicas t }
  in
  let ops' =
    if t.ops <= 1 then t.ops
    else
      Shrink.int_min ~still_fails:(fun o -> still_fails (with_ops t o)) ~lo:1
        t.ops
  in
  let t = with_ops t ops' in
  Config.int "ops" ops'
  :: Fault_plan.shrink (plan cfg ~shards:t.shards)
       ~still_fails:(fun plan -> still_fails { t with plan })
       t.plan

let trace (o : outcome) = o.Kv.run.trace
