module Omega = Mm_election.Omega

let name = "omega"
let doc = "eventual leader election: stability + silence (Thms 5.1/5.2)"
let default_budget = 50

type cfg = {
  variant : Omega.variant; (* lossy carries the MAX drop probability *)
  plan : Fault_plan.spec;
  warmup : int;
  window : int;
  trace_tail : int;
  settle : int; (* steps after the last fault clears to stop re-electing *)
}

type trial = {
  variant : Omega.variant; (* per-trial drop drawn below the max *)
  plan : Fault_plan.t;
}

type outcome = Omega.outcome

let variant_desc = function
  | Omega.Reliable -> "reliable"
  | Omega.Fair_lossy p -> Printf.sprintf "fair-lossy(drop=%.3f)" p

let cfg_of_params (p : Scenario.params) =
  let n = p.Scenario.n in
  let variant =
    match p.Scenario.variant with
    | Omega.Reliable -> Omega.Reliable
    | Omega.Fair_lossy _ -> Omega.Fair_lossy p.Scenario.drop
  in
  let warmup = Option.value p.Scenario.warmup ~default:60_000 in
  let window = Option.value p.Scenario.window ~default:10_000 in
  (* Process 0 is the designated timely process; §5 needs it alive, so
     it is never crashed nor restarted.  Heartbeats travel through
     shared memory, so partitions alone cannot unseat a leader;
     freezing the initial leader p0 is what forces a re-election —
     legal, because a freeze that thaws is exactly "eventually timely"
     (§5).  Every nemesis window clears in the first warmup quarter,
     every restart window in the first half, so the run settles well
     before the steady-state window. *)
  let crashes =
    Fault_plan.drawn p ~n ~avoid:[ 0 ] ~native_default:(lazy (max 0 (n - 2)))
      ~default_window:20_000
  in
  {
    variant;
    plan =
      {
        (Fault_plan.spec p ~n ~crashes ~max_steps:(warmup + window)) with
        pct_cap = None;
        horizon = warmup / 4;
        allow_drop = variant <> Omega.Reliable;
        restart_horizon = warmup / 2;
      };
    warmup;
    window;
    trace_tail = p.Scenario.trace_tail;
    settle =
      (match p.Scenario.settle with
      | Some s when s <= 0 ->
        invalid_arg "omega: --settle must be a positive step count"
      | Some s -> s
      | None -> warmup / 4);
  }

let preamble _ = None

(* Draw order is the replay contract; never reorder: the drop rate sits
   between the crash plan and the rest of the fault plan. *)
let gen (cfg : cfg) rng =
  let crashes = Fault_plan.crashes cfg.plan rng in
  let variant =
    match cfg.variant with
    | Omega.Reliable -> Omega.Reliable
    | Omega.Fair_lossy max -> Omega.Fair_lossy (Explore.gen_drop rng ~max)
  in
  { variant; plan = Fault_plan.draw cfg.plan rng ~crashes }

let execute ?arena:_ (cfg : cfg) (t : trial) =
  Omega.run ~seed:t.plan.engine_seed ~trace_capacity:cfg.trace_tail
    ~crashes:t.plan.crashes ~warmup:cfg.warmup ~window:cfg.window
    ?prepare:(Fault_plan.prepare t.plan) ~backend:cfg.plan.backend
    ~variant:t.variant ~n:cfg.plan.n ()

(* A crashed process can leave a notification unacknowledged forever,
   which the mechanisms may legitimately keep retransmitting — assert
   steady-state silence only on crash-free trials. *)
let monitors (cfg : cfg) (t : trial) =
  let { Fault_plan.crashes; nemesis; restarts; _ } = t.plan in
  (* The last fault to clear is either the end of the last nemesis
     window or the last crash (which never heals but stops changing the
     membership); leadership must settle within [cfg.settle] of it. *)
  let heal_by =
    max
      (max (Nemesis.heal_step nemesis) (Nemesis.heal_step restarts))
      (List.fold_left (fun acc (_, s) -> max acc s) 0 crashes)
  in
  Fault_plan.resilience cfg.plan (fun (o : outcome) -> o.Omega.run)
  @ ("omega-stable", Monitor.omega_stable)
    :: ((if nemesis <> [] then
           [
             ( "nemesis-convergence",
               Monitor.omega_converges ~heal_by ~settle:cfg.settle );
           ]
         else [])
       @ (if restarts <> [] then
            [
              (* Recovery-liveness: a restarted process re-joins (epoch
                 bump) and leadership re-stabilizes within the settle
                 budget of the last restart. *)
              ( "recovery-liveness",
                Monitor.omega_converges ~heal_by ~settle:cfg.settle );
            ]
          else [])
       @
       if crashes = [] && restarts = [] then
         (* The steady state is register traffic only: plain silence
            under native registers, silence modulo quorum rounds under
            the emulation (every window message must be accounted to a
            register op). *)
         match cfg.plan.backend with
         | Mm_mem.Mem.Backend.Native ->
           [ ("omega-silent", Monitor.omega_silent) ]
         | Mm_mem.Mem.Backend.Emulated ->
           [ ("omega-silent-emulated", Monitor.omega_silent_emulated) ]
       else [])

(* The settle budget is reported right after the nemesis timeline. *)
let config (cfg : cfg) (t : trial) =
  Fault_plan.config cfg.plan t.plan
    ~between:
      [
        Config.str "variant" (variant_desc t.variant);
        Config.str "backend" (Mm_mem.Mem.Backend.name cfg.plan.backend);
        Config.int "warmup" cfg.warmup;
        Config.int "window" cfg.window;
      ]
  |> List.concat_map (function
       | ("nemesis", _) as l -> [ l; Config.int "settle" cfg.settle ]
       | l -> [ l ])

let shrink (cfg : cfg) ~still_fails (t : trial) =
  Fault_plan.shrink cfg.plan
    ~still_fails:(fun plan -> still_fails { t with plan })
    t.plan

let trace (o : outcome) = o.Omega.run.trace
