module Rng = Mm_rng.Rng
module Network = Mm_net.Network
module Abd = Mm_abd.Abd

let name = "abd"
let doc = "ABD atomic register: completion, atomicity, linearizability"
let default_budget = 200

type cfg = { plan : Fault_plan.spec; max_ops : int; trace_tail : int }

type trial = {
  scripts : [ `Write of int | `Read | `Pause of int ] list array;
  delay : Network.delay;
  plan : Fault_plan.t;
}

type outcome = Abd.outcome

let fmt_op = function
  | `Write v -> Printf.sprintf "W%d" v
  | `Read -> "R"
  | `Pause k -> Printf.sprintf "P%d" k

let fmt_script = function
  | [] -> "(idle)"
  | ops -> String.concat " " (List.map fmt_op ops)

let delay_desc = function
  | Network.Immediate -> "immediate"
  | Network.Fixed d -> Printf.sprintf "fixed %d" d
  | Network.Uniform (lo, hi) -> Printf.sprintf "uniform %d-%d" lo hi

(* No crashes: a crashed writer's pending write may legitimately be
   adopted by readers.  Scripts are short, so the fault horizon is too;
   drops would stall quorum phases forever.  ABD processes carry no
   recovery closures: no restart windows. *)
let cfg_of_params (p : Scenario.params) =
  let max_ops = Int.max 1 (Option.value p.Scenario.max_ops ~default:4) in
  let max_steps = Option.value p.Scenario.max_steps ~default:200_000 in
  {
    plan =
      {
        (Fault_plan.spec p ~n:p.Scenario.n ~crashes:Fault_plan.No_crashes
           ~max_steps) with
        pct_cap = None;
        horizon = 4_000;
        stages = 2;
        restarts = false;
      };
    max_ops;
    trace_tail = p.Scenario.trace_tail;
  }

let preamble _ = None

let gen (cfg : cfg) rng =
  let next_val = ref 0 in
  let scripts =
    Array.init cfg.plan.n (fun _ ->
        let len = Rng.int rng (cfg.max_ops + 1) in
        List.init len (fun _ ->
            match Rng.int rng 5 with
            | 0 | 1 ->
              incr next_val;
              `Write !next_val
            | 2 | 3 -> `Read
            | _ -> `Pause (1 + Rng.int rng 20)))
  in
  let delay =
    match Rng.int rng 3 with
    | 0 -> Network.Immediate
    | 1 -> Network.Fixed (1 + Rng.int rng 3)
    | _ -> Network.Uniform (1, 2 + Rng.int rng 5)
  in
  { scripts; delay; plan = Fault_plan.draw cfg.plan rng }

let execute ?arena:_ (cfg : cfg) t =
  Abd.run ~seed:t.plan.engine_seed ~max_steps:cfg.plan.max_steps
    ~trace_capacity:cfg.trace_tail ?prepare:(Fault_plan.prepare t.plan)
    ~backend:cfg.plan.backend ~delay:t.delay ~n:cfg.plan.n ~scripts:t.scripts
    ()

(* ABD allocates no registers, so no backend ever blocks it: there is no
   resilience monitor here. *)
let monitors _cfg _t =
  [
    ("abd-complete", Monitor.abd_complete);
    ("abd-atomic", Monitor.abd_atomic);
    ("abd-linearizable", Monitor.abd_linearizable);
  ]

(* The nemesis line leads. *)
let config (cfg : cfg) t =
  Fault_plan.config cfg.plan t.plan
  @ Config.str "backend" (Mm_mem.Mem.Backend.name cfg.plan.backend)
  :: Config.str "delay" (delay_desc t.delay)
  :: List.mapi
       (fun i ops -> Config.str (Printf.sprintf "p%d" i) (fmt_script ops))
       (Array.to_list t.scripts)

(* Scripts interlock through globally unique write values, so removing
   operations rewrites the history wholesale; the trial is already
   small (max_ops per process), so only the fault timeline shrinks. *)
let shrink (cfg : cfg) ~still_fails t =
  Fault_plan.shrink cfg.plan
    ~still_fails:(fun plan -> still_fails { t with plan })
    t.plan

let trace (o : outcome) = o.Abd.run.trace
