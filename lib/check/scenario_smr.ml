module Rng = Mm_rng.Rng
module Log = Mm_smr.Replicated_log

let name = "smr"
let doc = "replicated log: slot consistency, prefix agreement, commitment"
let default_budget = 40

type cfg = {
  n : int;
  backend : Mm_mem.Mem.Backend.t;
  commands : int option; (* None: drawn per trial *)
  max_crashes : int;
  crash_window : int;
  max_steps : int;
  trace_tail : int;
  nemesis : bool;
  restarts : bool;
}

type trial = {
  commands : int;
  crashes : (int * int) list;
  k : int;
  pct_seed : int;
  engine_seed : int;
  nemesis : Nemesis.t;
  restarts : Nemesis.t;
}

type outcome = Log.outcome

let cfg_of_params (p : Scenario.params) =
  {
    n = p.Scenario.n;
    backend = p.Scenario.backend;
    commands = p.Scenario.commands;
    max_crashes =
      (match p.Scenario.max_crashes with
      | Some m -> m
      | None ->
        Scenario.cap_crashes p.Scenario.backend ~n:p.Scenario.n
          ~native_default:(max 0 (p.Scenario.n - 1)));
    crash_window = Option.value p.Scenario.crash_window ~default:2_000;
    max_steps = Option.value p.Scenario.max_steps ~default:400_000;
    trace_tail = p.Scenario.trace_tail;
    nemesis = p.Scenario.nemesis;
    restarts = p.Scenario.restarts;
  }

let preamble _ = None

(* Draw order is the replay contract; never reorder. *)
let gen (cfg : cfg) rng =
  let commands =
    match cfg.commands with Some c -> c | None -> 1 + Rng.int rng 3
  in
  let crashes =
    Explore.gen_crashes rng ~n:cfg.n ~avoid:[] ~max_crashes:cfg.max_crashes
      ~max_step:cfg.crash_window
  in
  let k = if Rng.bool rng then 0 else 1 + Rng.int rng 4 in
  let pct_seed = Rng.int rng 0x3FFF_FFFF in
  let engine_seed = Rng.int rng 0x3FFF_FFFF in
  (* Drawn last, gated on a sweep-wide constant: older trial seeds
     replay unchanged.  No drops — log messages are not retransmitted. *)
  let nemesis =
    if cfg.nemesis then
      Nemesis.gen rng ~n:cfg.n ~avoid:(List.map fst crashes)
        ~horizon:(min (cfg.max_steps / 4) 20_000) ~max_stages:3
        ~allow_drop:false
    else []
  in
  (* Restart windows are the newest gate, drawn after even the nemesis
     draws (same replay contract).  Crash victims are never restarted
     (crash-stop means stop). *)
  let restarts =
    if
      cfg.restarts
      && Scenario.restarts_safe cfg.backend ~n:cfg.n
           ~ncrashes:(List.length crashes)
    then
      Nemesis.gen_restarts rng ~n:cfg.n ~avoid:(List.map fst crashes)
        ~horizon:(min (cfg.max_steps / 4) 20_000) ~max_windows:2
    else []
  in
  { commands; crashes; k; pct_seed; engine_seed; nemesis; restarts }

let steps cfg ~k = if k = 0 then cfg.max_steps else min cfg.max_steps 20_000

let execute ?arena:_ (cfg : cfg) t =
  let max_steps = steps cfg ~k:t.k in
  let sched =
    if t.k = 0 then Explore.random_walk ()
    else Explore.pct ~seed:t.pct_seed ~n:cfg.n ~k:t.k ~depth:max_steps
  in
  let faults = t.nemesis @ t.restarts in
  let prepare = if faults = [] then None else Some (Nemesis.install faults) in
  Log.run ~seed:t.engine_seed ~max_steps ~trace_capacity:cfg.trace_tail
    ~crashes:t.crashes ?prepare ~backend:cfg.backend ~sched ~n:cfg.n
    ~commands_per_proc:t.commands ()

(* Safety (slot consistency + prefix agreement) holds on every trial;
   full commitment needs a fair schedule and no crashes (recovery after
   a leader crash can outlast any fixed sweep budget). *)
let monitors (cfg : cfg) t =
  (match cfg.backend with
  | Mm_mem.Mem.Backend.Native -> []
  | Mm_mem.Mem.Backend.Emulated ->
    [
      ( "emulated-resilience",
        Monitor.emulated_resilience ~order:cfg.n
          ~blocked:(fun (o : outcome) -> o.Log.mem_blocked)
          ~crashed:(fun (o : outcome) -> o.Log.crashed) );
    ])
  @ ("smr-consistent", Monitor.smr_consistent)
  :: ("smr-prefix", Monitor.smr_prefix)
  ::
  (if t.k = 0 && t.crashes = [] then
     if t.restarts = [] then [ ("smr-committed", Monitor.smr_committed) ]
     else
       (* Same predicate, stronger reading: restarted replicas must
          replay the decided prefix and still commit everything. *)
       [ ("recovery-liveness", Monitor.smr_committed) ]
   else [])

let config (cfg : cfg) t =
  [
    Config.int "commands" t.commands;
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
    Config.str "crashes" (Scenario.fmt_crashes crashes');
    Config.str "scheduler" (Scenario.sched_desc k');
  ]
  @ (if cfg.nemesis then [ Config.str "nemesis" (Nemesis.describe nemesis') ]
     else [])
  @
  (if cfg.restarts then [ Config.str "restarts" (Nemesis.describe restarts') ]
   else [])

let trace (o : outcome) = o.Log.trace
