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
  backend : Mm_mem.Mem.Backend.t;
  max_crashes : int;
  crash_window : int;
  max_steps : int;
  trace_tail : int;
  nemesis : bool;
  (* Theorem 4.4 scenario: (S side, T side, crash plan for B). *)
  stall : (int list * int list * (int * int) list) option;
}

type trial = {
  inputs : int array;
  crashes : (int * int) list;
  k : int;  (* 0 = random walk, else PCT priority levels *)
  pct_seed : int;
  engine_seed : int;
  nemesis : Nemesis.t;
}

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
  let max_crashes =
    match p.Scenario.max_crashes with
    | Some m -> m
    | None ->
      Scenario.cap_crashes p.Scenario.backend ~n:(Graph.order graph)
        ~native_default:(budgeted_crash_cap graph (default_max_crashes graph))
  in
  let stall =
    if p.Scenario.expect_stall then Some (stall_scenario graph) else None
  in
  {
    graph;
    family = p.Scenario.family;
    impl = p.Scenario.impl;
    backend = p.Scenario.backend;
    max_crashes;
    crash_window = Option.value p.Scenario.crash_window ~default:200;
    (* An HBO round is O(n²) engine steps (n processes each awaiting n
       neighborhood replies), so the old flat 60k default — ample at
       n <= 70, where 12n² stays below it — would misreport big
       instances as termination failures.  Scale quadratically past
       that point. *)
    max_steps =
      (let n = Graph.order graph in
       Option.value p.Scenario.max_steps ~default:(max 60_000 (12 * n * n)));
    trace_tail = p.Scenario.trace_tail;
    (* The Thm 4.4 stall scenario is a fixed permanent partition; a
       healing timeline would contradict it, so nemesis is off there. *)
    nemesis = p.Scenario.nemesis && not p.Scenario.expect_stall;
    stall;
  }

let preamble (cfg : cfg) =
  Some
    (Format.asprintf "checking hbo on %s %a: Thm 4.3 crash bound f* = %d"
       cfg.family Graph.pp cfg.graph
       (default_max_crashes cfg.graph))

(* Draw order is the replay contract; never reorder. *)
let gen (cfg : cfg) rng =
  let n = Graph.order cfg.graph in
  let inputs = Array.init n (fun _ -> Rng.int rng 2) in
  let crashes =
    match cfg.stall with
    | Some (_, _, b) -> b
    | None ->
      Explore.gen_crashes rng ~n ~avoid:[] ~max_crashes:cfg.max_crashes
        ~max_step:cfg.crash_window
  in
  let k = if Rng.bool rng then 0 else 1 + Rng.int rng 4 in
  let pct_seed = Rng.int rng 0x3FFF_FFFF in
  let engine_seed = Rng.int rng 0x3FFF_FFFF in
  (* Nemesis draws come last, gated on a sweep-wide constant, so older
     trial seeds replay unchanged.  All faults clear in the first eighth
     of the budget, leaving Thm 4.3 termination intact. *)
  let nemesis =
    if cfg.nemesis then
      Nemesis.gen rng ~n ~avoid:(List.map fst crashes)
        ~horizon:(cfg.max_steps / 8) ~max_stages:3 ~allow_drop:false
    else []
  in
  { inputs; crashes; k; pct_seed; engine_seed; nemesis }

(* PCT schedules are heavily skewed, so the slowest process may need the
   whole budget just to take a handful of steps; liveness is not
   monitored there, so cap the wasted wall-clock per PCT trial. *)
let steps cfg ~k = if k = 0 then cfg.max_steps else min cfg.max_steps 10_000

let execute ?arena:_ (cfg : cfg) t =
  let n = Graph.order cfg.graph in
  let max_steps = steps cfg ~k:t.k in
  let sched =
    if t.k = 0 then Explore.random_walk ()
    else Explore.pct ~seed:t.pct_seed ~n ~k:t.k ~depth:max_steps
  in
  let partition = Option.map (fun (s, t', _) -> (s, t')) cfg.stall in
  let prepare =
    if t.nemesis = [] then None else Some (Nemesis.install t.nemesis)
  in
  Hbo.run ~seed:t.engine_seed ~impl:cfg.impl ~max_steps
    ~trace_capacity:cfg.trace_tail ~crashes:t.crashes ?partition ?prepare
    ~backend:cfg.backend ~sched ~graph:cfg.graph ~inputs:t.inputs ()

(* The resilience-bound monitor leads under the emulated backend so a
   majority-crash trial is diagnosed against the emulation's bound, not
   as a generic termination failure. *)
let emulated_monitors (cfg : cfg) =
  match cfg.backend with
  | Mm_mem.Mem.Backend.Native -> []
  | Mm_mem.Mem.Backend.Emulated ->
    [
      ( "emulated-resilience",
        Monitor.emulated_resilience ~order:(Graph.order cfg.graph)
          ~blocked:(fun (o : outcome) -> o.Hbo.mem_blocked)
          ~crashed:(fun (o : outcome) -> o.Hbo.crashed) );
    ]

let monitors (cfg : cfg) t =
  emulated_monitors cfg
  @
  match cfg.stall with
  | Some _ ->
    [
      ("agreement", Monitor.hbo_agreement);
      ("validity", Monitor.hbo_validity ~inputs:t.inputs);
      ("sm-cut-stall", Monitor.hbo_stalls);
    ]
  | None ->
    ("agreement", Monitor.hbo_agreement)
    :: ("validity", Monitor.hbo_validity ~inputs:t.inputs)
    ::
    (if t.k = 0 then
       [ ("termination", Monitor.hbo_termination ~graph:cfg.graph) ]
     else [])

let config (cfg : cfg) t =
  [
    Config.str "inputs"
      (String.concat " " (Array.to_list (Array.map string_of_int t.inputs)));
    Config.str "crashes" (Scenario.fmt_crashes t.crashes);
    Config.str "scheduler" (Scenario.sched_desc t.k);
    Config.str "impl" (impl_desc cfg.impl);
    Config.str "backend" (Mm_mem.Mem.Backend.name cfg.backend);
  ]
  @ (if cfg.nemesis then
       [ Config.str "nemesis" (Nemesis.describe t.nemesis) ]
     else [])
  @
  match cfg.stall with
  | None -> []
  | Some (s, t', _) ->
    [
      Config.str "partition"
        (Printf.sprintf "S={%s} T={%s}" (Scenario.fmt_pids s)
           (Scenario.fmt_pids t'));
    ]

let shrink (cfg : cfg) ~still_fails t =
  match cfg.stall with
  | Some _ -> [] (* the Thm 4.4 scenario is fixed by construction *)
  | None ->
    let crashes' =
      Shrink.list_min
        ~still_fails:(fun cs -> still_fails { t with crashes = cs })
        t.crashes
    in
    let k' =
      if t.k <= 1 then t.k
      else
        Shrink.int_min
          ~still_fails:(fun v ->
            still_fails { t with crashes = crashes'; k = v })
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
    [
      Config.str "crashes" (Scenario.fmt_crashes crashes');
      Config.str "scheduler" (Scenario.sched_desc k');
    ]
    @
    (if cfg.nemesis then [ Config.str "nemesis" (Nemesis.describe nemesis') ]
     else [])

let trace (o : outcome) = o.Hbo.trace
