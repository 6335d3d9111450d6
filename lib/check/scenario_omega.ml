module Rng = Mm_rng.Rng
module Omega = Mm_election.Omega

let name = "omega"
let doc = "eventual leader election: stability + silence (Thms 5.1/5.2)"
let default_budget = 50

type cfg = {
  n : int;
  variant : Omega.variant; (* lossy carries the MAX drop probability *)
  backend : Mm_mem.Mem.Backend.t;
  max_crashes : int;
  crash_window : int;
  warmup : int;
  window : int;
  trace_tail : int;
  nemesis : bool;
  settle : int; (* steps after the last fault clears to stop re-electing *)
  restarts : bool;
}

type trial = {
  crashes : (int * int) list;
  variant : Omega.variant; (* per-trial drop drawn below the max *)
  engine_seed : int;
  nemesis : Nemesis.t;
  restarts : Nemesis.t;
}

type outcome = Omega.outcome

let variant_desc = function
  | Omega.Reliable -> "reliable"
  | Omega.Fair_lossy p -> Printf.sprintf "fair-lossy(drop=%.3f)" p

let cfg_of_params (p : Scenario.params) =
  let variant =
    match p.Scenario.variant with
    | Omega.Reliable -> Omega.Reliable
    | Omega.Fair_lossy _ -> Omega.Fair_lossy p.Scenario.drop
  in
  {
    n = p.Scenario.n;
    variant;
    backend = p.Scenario.backend;
    max_crashes =
      (match p.Scenario.max_crashes with
      | Some m -> m
      | None ->
        Scenario.cap_crashes p.Scenario.backend ~n:p.Scenario.n
          ~native_default:(max 0 (p.Scenario.n - 2)));
    crash_window = Option.value p.Scenario.crash_window ~default:20_000;
    warmup = Option.value p.Scenario.warmup ~default:60_000;
    window = Option.value p.Scenario.window ~default:10_000;
    trace_tail = p.Scenario.trace_tail;
    nemesis = p.Scenario.nemesis;
    restarts = p.Scenario.restarts;
    settle =
      (match p.Scenario.settle with
      | Some s when s <= 0 ->
        invalid_arg "omega: --settle must be a positive step count"
      | Some s -> s
      | None -> Option.value p.Scenario.warmup ~default:60_000 / 4);
  }

let preamble _ = None

let gen (cfg : cfg) rng =
  (* Process 0 is the designated timely process; §5 needs it alive. *)
  let crashes =
    Explore.gen_crashes rng ~n:cfg.n ~avoid:[ 0 ] ~max_crashes:cfg.max_crashes
      ~max_step:cfg.crash_window
  in
  let variant =
    match cfg.variant with
    | Omega.Reliable -> Omega.Reliable
    | Omega.Fair_lossy max -> Omega.Fair_lossy (Explore.gen_drop rng ~max)
  in
  let engine_seed = Rng.int rng 0x3FFF_FFFF in
  (* Nemesis draws come last, gated on a sweep-wide constant, so older
     trial seeds replay unchanged.  Heartbeats travel through shared
     memory, so partitions alone cannot unseat a leader; freezing the
     initial leader p0 is what forces a re-election — legal, because a
     freeze that thaws is exactly "eventually timely" (§5).  Every
     window clears in the first warmup quarter so the run can settle
     well before the steady-state window. *)
  let nemesis =
    if cfg.nemesis then
      Nemesis.gen rng ~n:cfg.n
        ~avoid:(List.map fst crashes)
        ~horizon:(cfg.warmup / 4) ~max_stages:3
        ~allow_drop:(match cfg.variant with Omega.Fair_lossy _ -> true | Omega.Reliable -> false)
    else []
  in
  (* Restart windows are the newest gate, drawn after even the nemesis
     draws (same replay contract).  The timely p0 and the crash plan's
     victims are never restarted, and all windows clear in the first
     warmup half so re-joining settles before the measurement window. *)
  let restarts =
    if
      cfg.restarts
      && Scenario.restarts_safe cfg.backend ~n:cfg.n
           ~ncrashes:(List.length crashes)
    then
      Nemesis.gen_restarts rng ~n:cfg.n
        ~avoid:(0 :: List.map fst crashes)
        ~horizon:(cfg.warmup / 2) ~max_windows:2
    else []
  in
  { crashes; variant; engine_seed; nemesis; restarts }

let execute ?arena:_ (cfg : cfg) t =
  let faults = t.nemesis @ t.restarts in
  let prepare = if faults = [] then None else Some (Nemesis.install faults) in
  Omega.run ~seed:t.engine_seed ~trace_capacity:cfg.trace_tail
    ~crashes:t.crashes ~warmup:cfg.warmup ~window:cfg.window ?prepare
    ~backend:cfg.backend ~variant:t.variant ~n:cfg.n ()

(* A crashed process can leave a notification unacknowledged forever,
   which the mechanisms may legitimately keep retransmitting — assert
   steady-state silence only on crash-free trials. *)
let monitors (cfg : cfg) t =
  (* The last fault to clear is either the end of the last nemesis
     window or the last crash (which never heals but stops changing the
     membership); leadership must settle within [cfg.settle] of it. *)
  let heal_by =
    max
      (max (Nemesis.heal_step t.nemesis) (Nemesis.heal_step t.restarts))
      (List.fold_left (fun acc (_, s) -> max acc s) 0 t.crashes)
  in
  (match cfg.backend with
  | Mm_mem.Mem.Backend.Native -> []
  | Mm_mem.Mem.Backend.Emulated ->
    [
      ( "emulated-resilience",
        Monitor.emulated_resilience ~order:cfg.n
          ~blocked:(fun (o : outcome) -> o.Omega.mem_blocked)
          ~crashed:(fun (o : outcome) -> o.Omega.crashed) );
    ])
  @ ("omega-stable", Monitor.omega_stable)
    :: ((if t.nemesis <> [] then
           [
             ( "nemesis-convergence",
               Monitor.omega_converges ~heal_by ~settle:cfg.settle );
           ]
         else [])
       @ (if t.restarts <> [] then
            [
              (* Recovery-liveness: a restarted process re-joins (epoch
                 bump) and leadership re-stabilizes within the settle
                 budget of the last restart. *)
              ( "recovery-liveness",
                Monitor.omega_converges ~heal_by ~settle:cfg.settle );
            ]
          else [])
       @
       if t.crashes = [] && t.restarts = [] then
         (* The steady state is register traffic only: plain silence
            under native registers, silence modulo quorum rounds under
            the emulation (every window message must be accounted to a
            register op). *)
         match cfg.backend with
         | Mm_mem.Mem.Backend.Native ->
           [ ("omega-silent", Monitor.omega_silent) ]
         | Mm_mem.Mem.Backend.Emulated ->
           [ ("omega-silent-emulated", Monitor.omega_silent_emulated) ]
       else [])

let config (cfg : cfg) t =
  [
    Config.str "crashes" (Scenario.fmt_crashes t.crashes);
    Config.str "variant" (variant_desc t.variant);
    Config.str "backend" (Mm_mem.Mem.Backend.name cfg.backend);
    Config.int "warmup" cfg.warmup;
    Config.int "window" cfg.window;
  ]
  @ (if cfg.nemesis then
       [
         Config.str "nemesis" (Nemesis.describe t.nemesis);
         Config.int "settle" cfg.settle;
       ]
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
  let nemesis' =
    if t.nemesis = [] then t.nemesis
    else
      Nemesis.shrink
        ~still_fails:(fun tl ->
          still_fails { t with crashes = crashes'; nemesis = tl })
        t.nemesis
  in
  let restarts' =
    if t.restarts = [] then t.restarts
    else
      Nemesis.shrink
        ~still_fails:(fun tl ->
          still_fails
            { t with crashes = crashes'; nemesis = nemesis'; restarts = tl })
        t.restarts
  in
  Config.str "crashes" (Scenario.fmt_crashes crashes')
  :: ((if cfg.nemesis then
         [ Config.str "nemesis" (Nemesis.describe nemesis') ]
       else [])
     @
     if cfg.restarts then
       [ Config.str "restarts" (Nemesis.describe restarts') ]
     else [])

let trace (o : outcome) = o.Omega.trace
