module Rng = Mm_rng.Rng
module Graph = Mm_graph.Graph
module B = Mm_graph.Builders
module Expansion = Mm_graph.Expansion
module Cut = Mm_graph.Sm_cut
module Hbo = Mm_consensus.Hbo

let name = "hbo"
let doc = "HBO consensus: agreement, validity, termination (Thms 4.1-4.4)"
let default_budget = 200

let default_max_crashes graph =
  let n = Graph.order graph in
  let h =
    if n <= 16 then Expansion.vertex_expansion_exact graph
    else Expansion.vertex_expansion_sampled (Rng.create 42) graph ~samples:2000
  in
  Expansion.ft_bound ~h ~n

(* Budgeted-convergence envelope.  Near the Thm 4.3 bound HBO still
   terminates with probability 1 (Thm 4.2), but its expected coin-round
   count grows exponentially in the representation deficit, so at large
   n a random sweep drawing up to f* crashes would stall inside any
   finite step budget without exhibiting a bug.  Default draws above 62
   vertices therefore stay within 3·√n crashes — the regime where a few
   coin rounds decide — matching the termination monitor's envelope.
   Explicit --crashes still probes past it, and the hbo-threshold-sweep
   experiment locates the true threshold with unanimous-input probes
   that decide in round 1 whenever a majority is represented. *)
let budgeted_crash_cap graph fstar =
  let n = Graph.order graph in
  if n <= 62 then fstar
  else min fstar (3 * int_of_float (sqrt (float_of_int n)))

type cfg = {
  graph : Graph.t;
  family : string;
  impl : Hbo.impl;
  plan : Fault_plan.spec;
  trace_tail : int;
  (* Theorem 4.4 scenario: the S and T sides of the permanent partition
     (the crash plan for B is the plan's fixed crash set). *)
  stall : (int list * int list) option;
}

type trial = { inputs : int array; plan : Fault_plan.t }

type outcome = Hbo.outcome

let impl_desc = function
  | Hbo.Registers -> "registers"
  | Hbo.Trusted -> "trusted"
  | Hbo.Direct -> "direct"

let stall_scenario graph =
  match Cut.min_f_with_cut graph with
  | None ->
    invalid_arg
      "hbo: --expect-stall needs a graph with an SM-cut (Thm \
       4.4), but none was found"
  | Some f -> (
    match Cut.find graph ~f with
    | None -> assert false
    | Some cut -> (cut.Cut.s, cut.Cut.t, List.map (fun b -> (b, 0)) cut.Cut.b))

let cfg_of_params (p : Scenario.params) =
  let graph =
    match p.Scenario.graph with Some g -> g | None -> B.complete p.Scenario.n
  in
  let n = Graph.order graph in
  if p.Scenario.impl = Hbo.Direct && Graph.size graph <> 0 then
    invalid_arg
      "hbo: --impl direct is pure Ben-Or and needs an edgeless graph (-g \
       edgeless)";
  let stall =
    if p.Scenario.expect_stall then Some (stall_scenario graph) else None
  in
  let crashes =
    match stall with
    | Some (_, _, b) -> Fault_plan.Fixed b
    | None ->
      Fault_plan.drawn p ~n
        ~native_default:
          (lazy (budgeted_crash_cap graph (default_max_crashes graph)))
        ~default_window:200
  in
  (* An HBO round is O(n²) engine steps (n processes each awaiting n
     neighborhood replies), so the old flat 60k default — ample at
     n <= 70, where 12n² stays below it — would misreport big
     instances as termination failures.  Scale quadratically past
     that point. *)
  let max_steps =
    Option.value p.Scenario.max_steps ~default:(max 60_000 (12 * n * n))
  in
  {
    graph;
    family = p.Scenario.family;
    impl = p.Scenario.impl;
    (* All nemesis faults clear in the first eighth of the budget,
       leaving Thm 4.3 termination intact; the Thm 4.4 stall scenario
       is a fixed permanent partition, which a healing timeline would
       contradict, so nemesis is off there.  HBO processes carry no
       recovery closures: no restart windows. *)
    plan =
      {
        (Fault_plan.spec p ~n ~crashes ~max_steps) with
        pct_cap = Some 10_000;
        nemesis = p.Scenario.nemesis && stall = None;
        horizon = max_steps / 8;
        restarts = false;
      };
    trace_tail = p.Scenario.trace_tail;
    stall = Option.map (fun (s, t, _) -> (s, t)) stall;
  }

let preamble (cfg : cfg) =
  Some
    (Format.asprintf "checking hbo on %s %a: Thm 4.3 crash bound f* = %d"
       cfg.family Graph.pp cfg.graph
       (default_max_crashes cfg.graph))

(* Draw order is the replay contract; never reorder. *)
let gen (cfg : cfg) rng =
  let inputs = Array.init cfg.plan.n (fun _ -> Rng.int rng 2) in
  { inputs; plan = Fault_plan.draw cfg.plan rng }

let execute ?arena:_ (cfg : cfg) (t : trial) =
  let max_steps, sched = Fault_plan.sched cfg.plan t.plan in
  Hbo.run ~seed:t.plan.engine_seed ~impl:cfg.impl ~max_steps
    ~trace_capacity:cfg.trace_tail ~crashes:t.plan.crashes
    ?partition:cfg.stall ?prepare:(Fault_plan.prepare t.plan)
    ~backend:cfg.plan.backend ~sched ~graph:cfg.graph ~inputs:t.inputs ()

(* Termination only on the fair walk: PCT schedules are too skewed to
   give every process enough steps inside the budget. *)
let monitors (cfg : cfg) (t : trial) =
  Fault_plan.resilience cfg.plan (fun (o : outcome) -> o.Hbo.run)
  @ ("agreement", fun (o : outcome) -> Monitor.agreement o.Hbo.decisions)
  :: ( "validity",
       fun (o : outcome) -> Monitor.validity ~inputs:t.inputs o.Hbo.decisions )
  ::
  (match cfg.stall with
  | Some _ -> [ ("sm-cut-stall", Monitor.hbo_stalls) ]
  | None when t.plan.k = 0 ->
    [ ("termination", Monitor.hbo_termination ~graph:cfg.graph) ]
  | None -> [])

let fmt_pids ps = String.concat "," (List.map (Printf.sprintf "p%d") ps)

let config (cfg : cfg) (t : trial) =
  Config.str "inputs"
    (String.concat " " (Array.to_list (Array.map string_of_int t.inputs)))
  :: Fault_plan.config cfg.plan t.plan
       ~between:
         [
           Config.str "impl" (impl_desc cfg.impl);
           Config.str "backend" (Mm_mem.Mem.Backend.name cfg.plan.backend);
         ]
  @
  match cfg.stall with
  | None -> []
  | Some (s, t') ->
    [
      Config.str "partition"
        (Printf.sprintf "S={%s} T={%s}" (fmt_pids s) (fmt_pids t'));
    ]

(* The Thm 4.4 scenario is fixed by construction: its plan is not
   shrunk. *)
let shrink (cfg : cfg) ~still_fails (t : trial) =
  Fault_plan.shrink cfg.plan
    ~still_fails:(fun plan -> still_fails { t with plan })
    t.plan

let trace (o : outcome) = o.Hbo.run.trace
