module Rng = Mm_rng.Rng
module Mutex = Mm_mutex.Mutex

let name = "mutex"
let doc = "mutual exclusion: safety, progress, and the no-spin invariant (§1)"
let default_budget = 100

type cfg = {
  n : int;
  backend : Mm_mem.Mem.Backend.t;
  entries : int option; (* None: drawn per trial *)
  max_steps : int;
  trace_tail : int;
  nemesis : bool;
}

type algo = Bakery | Local_spin | Mm

type trial = {
  algo : algo;
  entries : int;
  cs_work : int;
  k : int;
  pct_seed : int;
  engine_seed : int;
  nemesis : Nemesis.t;
}

type outcome = Mutex.outcome

let algo_desc = function
  | Bakery -> "bakery"
  | Local_spin -> "local-spin"
  | Mm -> "mm"

let cfg_of_params (p : Scenario.params) =
  {
    n = p.Scenario.n;
    backend = p.Scenario.backend;
    entries = p.Scenario.entries;
    max_steps = Option.value p.Scenario.max_steps ~default:200_000;
    trace_tail = p.Scenario.trace_tail;
    nemesis = p.Scenario.nemesis;
  }

let preamble _ = None

(* Draw order is the replay contract; never reorder. *)
let gen (cfg : cfg) rng =
  let algo =
    match Rng.int rng 3 with 0 -> Bakery | 1 -> Local_spin | _ -> Mm
  in
  let entries =
    match cfg.entries with Some e -> e | None -> 1 + Rng.int rng 3
  in
  let cs_work = 1 + Rng.int rng 6 in
  let k = if Rng.bool rng then 0 else 1 + Rng.int rng 4 in
  let pct_seed = Rng.int rng 0x3FFF_FFFF in
  let engine_seed = Rng.int rng 0x3FFF_FFFF in
  (* Drawn last, gated on a sweep-wide constant: older trial seeds
     replay unchanged.  Freeze/thaw across lock handoffs is the
     interesting adversary here; drops would break the wake-up message. *)
  let nemesis =
    if cfg.nemesis then
      Nemesis.gen rng ~n:cfg.n ~avoid:[]
        ~horizon:(min (cfg.max_steps / 4) 20_000) ~max_stages:3
        ~allow_drop:false
    else []
  in
  { algo; entries; cs_work; k; pct_seed; engine_seed; nemesis }

let steps cfg ~k = if k = 0 then cfg.max_steps else min cfg.max_steps 20_000

let execute ?arena:_ (cfg : cfg) t =
  let max_steps = steps cfg ~k:t.k in
  let sched =
    if t.k = 0 then Explore.random_walk ()
    else Explore.pct ~seed:t.pct_seed ~n:cfg.n ~k:t.k ~depth:max_steps
  in
  let run =
    match t.algo with
    | Bakery -> Mutex.run_bakery
    | Local_spin -> Mutex.run_local_spin
    | Mm -> Mutex.run_mm
  in
  let prepare =
    if t.nemesis = [] then None else Some (Nemesis.install t.nemesis)
  in
  run ~seed:t.engine_seed ~max_steps ~cs_work:t.cs_work
    ~trace_capacity:cfg.trace_tail ?prepare ~backend:cfg.backend
    ~sched ~n:cfg.n ~entries:t.entries ()

(* Exclusion is asserted always; the §1 no-spin invariant only applies
   to the m&m lock (the spinning locks spin by design); progress needs
   a fair schedule. *)
(* Mutex draws no crashes, so under the emulated backend the
   resilience monitor is a pure accounting guard: any blocked op with
   every host up is an emulation bug. *)
let monitors (cfg : cfg) t =
  (match cfg.backend with
  | Mm_mem.Mem.Backend.Native -> []
  | Mm_mem.Mem.Backend.Emulated ->
    [
      ( "emulated-resilience",
        Monitor.emulated_resilience ~order:cfg.n
          ~blocked:(fun (o : outcome) -> o.Mutex.mem_blocked)
          ~crashed:(fun (_ : outcome) -> Array.make cfg.n false) );
    ])
  @ ("mutex-exclusion", Monitor.mutex_exclusion)
  :: ((if t.algo = Mm then [ ("mutex-no-spin", Monitor.mutex_no_spin) ]
       else [])
     @
     if t.k = 0 then
       [ ("mutex-progress", Monitor.mutex_progress ~entries:t.entries) ]
     else [])

let config (cfg : cfg) t =
  [
    Config.str "algo" (algo_desc t.algo);
    Config.int "entries" t.entries;
    Config.int "cs-work" t.cs_work;
    Config.str "scheduler" (Scenario.sched_desc t.k);
    Config.str "backend" (Mm_mem.Mem.Backend.name cfg.backend);
  ]
  @
  if cfg.nemesis then [ Config.str "nemesis" (Nemesis.describe t.nemesis) ]
  else []

let shrink (cfg : cfg) ~still_fails t =
  let entries' =
    if t.entries <= 1 then t.entries
    else
      Shrink.int_min
        ~still_fails:(fun v -> still_fails { t with entries = v })
        ~lo:1 t.entries
  in
  let k' =
    if t.k <= 1 then t.k
    else
      Shrink.int_min
        ~still_fails:(fun v ->
          still_fails { t with entries = entries'; k = v })
        ~lo:1 t.k
  in
  let nemesis' =
    if t.nemesis = [] then t.nemesis
    else
      Nemesis.shrink
        ~still_fails:(fun tl ->
          still_fails { t with entries = entries'; k = k'; nemesis = tl })
        t.nemesis
  in
  [
    Config.int "entries" entries';
    Config.str "scheduler" (Scenario.sched_desc k');
  ]
  @
  (if cfg.nemesis then [ Config.str "nemesis" (Nemesis.describe nemesis') ]
   else [])

let trace (o : outcome) = o.Mutex.trace
