module Rng = Mm_rng.Rng
module Kv = Mm_kv.Kv
module W = Mm_kv.Workload

let name = "kv"
let doc = "sharded KV on smr: per-key linearizability, completion, recovery"
let default_budget = 40

type cfg = {
  replicas : int; (* per shard *)
  backend : Mm_mem.Mem.Backend.t;
  shards : int option; (* None: drawn per trial *)
  clients : int option;
  ops : int option;
  local_reads : bool;
  max_crashes : int;
  crash_window : int;
  max_steps : int;
  settle : int;
  trace_tail : int;
  nemesis : bool;
  restarts : bool;
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
  crashes : (int * int) list;
  k : int;
  pct_seed : int;
  engine_seed : int;
  nemesis : Nemesis.t;
  restarts : Nemesis.t;
}

type outcome = Kv.outcome

let cfg_of_params (p : Scenario.params) =
  let max_steps = Option.value p.Scenario.max_steps ~default:400_000 in
  {
    replicas = p.Scenario.n;
    backend = p.Scenario.backend;
    shards = p.Scenario.shards;
    clients = p.Scenario.clients;
    ops = p.Scenario.max_ops;
    local_reads = p.Scenario.local_reads;
    max_crashes =
      (* The total host count is shards x replicas, drawn per trial;
         capping at a replica-count minority is therefore conservative
         for every drawn shard count. *)
      (match p.Scenario.max_crashes with
      | Some m -> m
      | None ->
        Scenario.cap_crashes p.Scenario.backend ~n:p.Scenario.n
          ~native_default:(max 0 (p.Scenario.n - 1)));
    crash_window = Option.value p.Scenario.crash_window ~default:2_000;
    max_steps;
    settle =
      (match p.Scenario.settle with
      | Some s when s <= 0 ->
        invalid_arg "kv: --settle must be a positive step count"
      | Some s -> s
      | None -> max_steps / 2);
    trace_tail = p.Scenario.trace_tail;
    nemesis = p.Scenario.nemesis;
    restarts = p.Scenario.restarts;
  }

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
  (* Total op caps keep every per-key Lin history under the checker's
     62-event bitmask bound. *)
  let ops =
    match cfg.ops with
    | Some o -> min o 62
    | None -> 8 + Rng.int rng 41
  in
  let theta = [| 0.0; 0.8; 1.1 |].(Rng.int rng 3) in
  let mean_gap = 4 + Rng.int rng 44 in
  let read_pct = [| 25; 50; 90 |].(Rng.int rng 3) in
  let key_space = 2 + Rng.int rng 14 in
  let wl_seed = Rng.int rng 0x3FFF_FFFF in
  let n = shards * cfg.replicas in
  let crashes =
    Explore.gen_crashes rng ~n ~avoid:[] ~max_crashes:cfg.max_crashes
      ~max_step:cfg.crash_window
  in
  let k = if Rng.bool rng then 0 else 1 + Rng.int rng 4 in
  let pct_seed = Rng.int rng 0x3FFF_FFFF in
  let engine_seed = Rng.int rng 0x3FFF_FFFF in
  (* Drawn last, gated on a sweep-wide constant: older trial seeds
     replay unchanged.  No drops — forwards are retransmitted, but the
     recovery monitor budgets for delays, not losses. *)
  let nemesis =
    if cfg.nemesis then
      Nemesis.gen rng ~n ~avoid:(List.map fst crashes)
        ~horizon:(min (cfg.max_steps / 4) 20_000) ~max_stages:3
        ~allow_drop:false
    else []
  in
  (* Restart windows are the newest gate, drawn after even the nemesis
     draws (same replay contract).  Crash victims stay dead.  The
     emulated-safety gate is evaluated per replica group — as if every
     drawn crash landed in the window's own shard — which is
     conservative for every actual crash placement. *)
  let restarts =
    if
      cfg.restarts
      && Scenario.restarts_safe cfg.backend ~n:cfg.replicas
           ~ncrashes:(List.length crashes)
    then
      Nemesis.gen_restarts rng ~n ~avoid:(List.map fst crashes)
        ~horizon:(min (cfg.max_steps / 4) 20_000) ~max_windows:2
    else []
  in
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
    crashes;
    k;
    pct_seed;
    engine_seed;
    nemesis;
    restarts;
  }

let steps cfg ~k = if k = 0 then cfg.max_steps else min cfg.max_steps 20_000

let execute ?arena:_ (cfg : cfg) t =
  let max_steps = steps cfg ~k:t.k in
  let n = t.shards * cfg.replicas in
  let sched =
    if t.k = 0 then Explore.random_walk ()
    else Explore.pct ~seed:t.pct_seed ~n ~k:t.k ~depth:max_steps
  in
  let faults = t.nemesis @ t.restarts in
  let prepare = if faults = [] then None else Some (Nemesis.install faults) in
  Kv.run ~seed:t.engine_seed ~max_steps ~trace_capacity:cfg.trace_tail
    ~crashes:t.crashes ?prepare ~backend:cfg.backend ~sched
    ~local_reads:cfg.local_reads ~shards:t.shards ~replicas:cfg.replicas
    ~workload:t.workload ()

(* Safety (per-shard slot consistency + per-key linearizability) holds
   on every trial; completion needs a fair schedule and no faults, and
   post-heal recovery a fair schedule and no crashes. *)
let monitors (cfg : cfg) t =
  (match cfg.backend with
  | Mm_mem.Mem.Backend.Native -> []
  | Mm_mem.Mem.Backend.Emulated ->
    [
      ( "emulated-resilience",
        Monitor.emulated_resilience ~order:(t.shards * cfg.replicas)
          ~blocked:(fun (o : outcome) -> o.Kv.mem_blocked)
          ~crashed:(fun (o : outcome) -> o.Kv.crashed) );
    ])
  @ ("kv-log-consistent", Monitor.kv_log_consistent)
  :: ("kv-linearizable", Monitor.kv_linearizable)
  :: ((* Durability needs the quiescent stop (every live replica caught
         up to its shard's applied high-water mark), which only a fair
         schedule reaches reliably; a crash-stopped replica's host log
         survives, so crashes don't weaken the check. *)
      (if t.restarts <> [] && t.k = 0 then
         [ ("kv-durable", Monitor.kv_durable) ]
       else [])
     @
     if t.k = 0 && t.crashes = [] && t.nemesis = [] && t.restarts = [] then
       [ ("kv-complete", Monitor.kv_complete) ]
     else if t.k = 0 && t.crashes = [] then
       let heal_by =
         max (Nemesis.heal_step t.nemesis) (Nemesis.heal_step t.restarts)
       in
       let m = Monitor.kv_recovers ~heal_by ~settle:cfg.settle in
       if t.restarts = [] then [ ("kv-recovers", m) ]
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
    Config.str "crashes" (Scenario.fmt_crashes t.crashes);
    Config.str "scheduler" (Scenario.sched_desc t.k);
    Config.str "backend" (Mm_mem.Mem.Backend.name cfg.backend);
  ]
  @ (if cfg.nemesis then [ Config.str "nemesis" (Nemesis.describe t.nemesis) ]
     else [])
  @
  if cfg.restarts then [ Config.str "restarts" (Nemesis.describe t.restarts) ]
  else []

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
  let crashes' =
    Shrink.list_min
      ~still_fails:(fun cs -> still_fails { t with crashes = cs })
      t.crashes
  in
  let k' =
    if t.k <= 1 then t.k
    else
      Shrink.int_min
        ~still_fails:(fun v -> still_fails { t with crashes = crashes'; k = v })
        ~lo:1 t.k
  in
  let nemesis' =
    if t.nemesis = [] then t.nemesis
    else
      Nemesis.shrink
        ~still_fails:(fun tl ->
          still_fails { t with crashes = crashes'; k = k'; nemesis = tl })
        t.nemesis
  in
  let restarts' =
    if t.restarts = [] then t.restarts
    else
      Nemesis.shrink
        ~still_fails:(fun tl ->
          still_fails
            {
              t with
              crashes = crashes';
              k = k';
              nemesis = nemesis';
              restarts = tl;
            })
        t.restarts
  in
  [
    Config.int "ops" ops';
    Config.str "crashes" (Scenario.fmt_crashes crashes');
    Config.str "scheduler" (Scenario.sched_desc k');
  ]
  @ (if cfg.nemesis then [ Config.str "nemesis" (Nemesis.describe nemesis') ]
     else [])
  @
  (if cfg.restarts then [ Config.str "restarts" (Nemesis.describe restarts') ]
   else [])

let trace (o : outcome) = o.Kv.trace
