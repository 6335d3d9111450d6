module Rng = Mm_rng.Rng
module Paxos = Mm_consensus.Paxos

let name = "paxos"
let doc = "shared-memory Paxos: agreement/validity under crashes + unstable oracles"
let default_budget = 100

type cfg = {
  n : int;
  backend : Mm_mem.Mem.Backend.t;
  max_crashes : int;
  crash_window : int;
  max_steps : int;
  trace_tail : int;
  nemesis : bool;
  restarts : bool;
}

type trial = {
  inputs : int array;
  oracle : Paxos.oracle;
  crashes : (int * int) list;
  k : int;
  pct_seed : int;
  engine_seed : int;
  nemesis : Nemesis.t;
  restarts : Nemesis.t;
}

type outcome = Paxos.outcome

let oracle_desc = function
  | Paxos.Heartbeat -> "heartbeat"
  | Paxos.Anarchy -> "anarchy"
  | Paxos.Static l -> Printf.sprintf "static(p%d)" l

let cfg_of_params (p : Scenario.params) =
  {
    n = p.Scenario.n;
    backend = p.Scenario.backend;
    max_crashes =
      (match p.Scenario.max_crashes with
      | Some m -> m
      | None ->
        Scenario.cap_crashes p.Scenario.backend ~n:p.Scenario.n
          ~native_default:(max 0 (p.Scenario.n - 1)));
    crash_window = Option.value p.Scenario.crash_window ~default:2_000;
    max_steps = Option.value p.Scenario.max_steps ~default:200_000;
    trace_tail = p.Scenario.trace_tail;
    nemesis = p.Scenario.nemesis;
    restarts = p.Scenario.restarts;
  }

let preamble _ = None

(* Draw order is the replay contract; never reorder. *)
let gen (cfg : cfg) rng =
  let inputs = Array.init cfg.n (fun _ -> Rng.int rng 1_000) in
  let oracle =
    match Rng.int rng 4 with
    | 0 | 1 -> Paxos.Heartbeat
    | 2 -> Paxos.Anarchy
    | _ -> Paxos.Static (Rng.int rng cfg.n)
  in
  let crashes =
    Explore.gen_crashes rng ~n:cfg.n ~avoid:[] ~max_crashes:cfg.max_crashes
      ~max_step:cfg.crash_window
  in
  let k = if Rng.bool rng then 0 else 1 + Rng.int rng 4 in
  let pct_seed = Rng.int rng 0x3FFF_FFFF in
  let engine_seed = Rng.int rng 0x3FFF_FFFF in
  (* Drawn last, gated on a sweep-wide constant: older trial seeds
     replay unchanged.  No drops — Paxos messages are not retransmitted. *)
  let nemesis =
    if cfg.nemesis then
      Nemesis.gen rng ~n:cfg.n ~avoid:(List.map fst crashes)
        ~horizon:(min (cfg.max_steps / 4) 20_000) ~max_stages:3
        ~allow_drop:false
    else []
  in
  (* Restart windows are the newest gate, drawn after even the nemesis
     draws (same replay contract).  Crash victims stay dead; the
     recovery closure re-reads the proposer's own block and the decision
     register, so agreement must hold across any window. *)
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
  { inputs; oracle; crashes; k; pct_seed; engine_seed; nemesis; restarts }

(* Liveness is only monitored on fair trials, so cap the wall-clock a
   skewed PCT schedule can burn. *)
let steps cfg ~k = if k = 0 then cfg.max_steps else min cfg.max_steps 20_000

let execute ?arena:_ (cfg : cfg) t =
  let max_steps = steps cfg ~k:t.k in
  let sched =
    if t.k = 0 then Explore.random_walk ()
    else Explore.pct ~seed:t.pct_seed ~n:cfg.n ~k:t.k ~depth:max_steps
  in
  let faults = t.nemesis @ t.restarts in
  let prepare = if faults = [] then None else Some (Nemesis.install faults) in
  Paxos.run ~seed:t.engine_seed ~oracle:t.oracle ~max_steps
    ~trace_capacity:cfg.trace_tail ~crashes:t.crashes ?prepare
    ~backend:cfg.backend ~sched ~n:cfg.n ~inputs:t.inputs ()

(* Safety holds on every trial — dueling Anarchy leaders included.
   Termination needs a fair schedule, no crashes (a dead Static leader
   never proposes) and a stabilizing oracle. *)
let monitors (cfg : cfg) t =
  (match cfg.backend with
  | Mm_mem.Mem.Backend.Native -> []
  | Mm_mem.Mem.Backend.Emulated ->
    [
      ( "emulated-resilience",
        Monitor.emulated_resilience ~order:cfg.n
          ~blocked:(fun (o : outcome) -> o.Paxos.mem_blocked)
          ~crashed:(fun (o : outcome) -> o.Paxos.crashed) );
    ])
  @ ("paxos-agreement", Monitor.paxos_agreement)
  :: ("paxos-validity", Monitor.paxos_validity ~inputs:t.inputs)
  ::
  (if t.k = 0 && t.crashes = [] && t.oracle <> Paxos.Anarchy then
     if t.restarts = [] then
       [ ("paxos-termination", Monitor.paxos_termination) ]
     else
       (* Same predicate, stronger reading: restarted proposers rebuild
          their ballot state from the registers and still decide. *)
       [ ("recovery-liveness", Monitor.paxos_termination) ]
   else [])

let config (cfg : cfg) t =
  [
    Config.str "inputs"
      (String.concat " " (Array.to_list (Array.map string_of_int t.inputs)));
    Config.str "oracle" (oracle_desc t.oracle);
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

let trace (o : outcome) = o.Paxos.trace
