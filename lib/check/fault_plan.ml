module Rng = Mm_rng.Rng
module Backend = Mm_mem.Mem.Backend

(* Default crash budget per backend.  Emulated registers only stay
   wait-free below a minority of crashes (arXiv 1906.00298), so default
   sweeps cap the crash draw there — an explicit --crashes override is
   how one deliberately probes past the bound. *)
let cap_crashes backend ~n ~native_default =
  match backend with
  | Backend.Native -> native_default
  | Backend.Emulated -> min native_default (max 0 ((n - 1) / 2))

(* Whether drawing a restart window is sound for this trial: while one
   process is transiently down, the crash plan's victims plus that one
   must still leave the live majority the emulated backend's quorum
   needs — otherwise every register op inside the window would block
   and the emulated-resilience monitor would (correctly) flag the
   bound, turning a clean sweep red for a reason the restart machinery
   did not cause.  Native registers have no quorum, so any crash set is
   fine.  Restart windows never overlap (gen_restarts is sequential),
   so "one extra down" is exact. *)
let restarts_safe backend ~n ~ncrashes =
  match backend with
  | Backend.Native -> true
  | Backend.Emulated -> 2 * (n - ncrashes - 1) > n

type crashes =
  | No_crashes
  | Fixed of (int * int) list
  | Drawn of { max_crashes : int; window : int; avoid : int list }

let drawn ?(avoid = []) (p : Scenario.params) ~n ~native_default
    ~default_window =
  let max_crashes =
    match p.Scenario.max_crashes with
    | Some m -> m
    | None ->
      cap_crashes p.Scenario.backend ~n
        ~native_default:(Lazy.force native_default)
  in
  let window = Option.value p.Scenario.crash_window ~default:default_window in
  Drawn { max_crashes; window; avoid }

type spec = {
  n : int;
  backend : Backend.t;
  crashes : crashes;
  pct_cap : int option;
  max_steps : int;
  nemesis : bool;
  horizon : int;
  stages : int;
  allow_drop : bool;
  restarts : bool;
  restart_horizon : int;
  quorum : int;
}

let spec (p : Scenario.params) ~n ~crashes ~max_steps =
  let horizon = min (max_steps / 4) 20_000 in
  {
    n;
    backend = p.Scenario.backend;
    crashes;
    pct_cap = Some 20_000;
    max_steps;
    nemesis = p.Scenario.nemesis;
    horizon;
    stages = 3;
    allow_drop = false;
    restarts = p.Scenario.restarts;
    restart_horizon = horizon;
    quorum = n;
  }

type t = {
  crashes : (int * int) list;
  k : int;
  pct_seed : int;
  engine_seed : int;
  nemesis : Nemesis.t;
  restarts : Nemesis.t;
}

let crashes (spec : spec) rng =
  match spec.crashes with
  | No_crashes -> []
  | Fixed cs -> cs
  | Drawn { max_crashes; window; avoid } ->
    Explore.gen_crashes rng ~n:spec.n ~avoid ~max_crashes ~max_step:window

(* Draw order is the replay contract; never reorder.  Each gate is a
   sweep-wide constant, and newer draws come later (nemesis, then
   restart windows), so older trial seeds replay unchanged. *)
let draw ?crashes:drawn (spec : spec) rng =
  let crashes =
    match drawn with Some cs -> cs | None -> crashes spec rng
  in
  let k, pct_seed =
    match spec.pct_cap with
    | None -> (0, 0)
    | Some _ ->
      let k = if Rng.bool rng then 0 else 1 + Rng.int rng 4 in
      (k, Rng.int rng 0x3FFF_FFFF)
  in
  let engine_seed = Rng.int rng 0x3FFF_FFFF in
  let victims = List.map fst crashes in
  let nemesis =
    if spec.nemesis then
      Nemesis.gen rng ~n:spec.n ~avoid:victims ~horizon:spec.horizon
        ~max_stages:spec.stages ~allow_drop:spec.allow_drop
    else []
  in
  (* Crash victims stay dead (crash-stop means stop), and a process the
     crash plan spares by design is never taken down either. *)
  let restarts =
    if
      spec.restarts
      && restarts_safe spec.backend ~n:spec.quorum
           ~ncrashes:(List.length crashes)
    then
      let spared =
        match spec.crashes with Drawn { avoid; _ } -> avoid | _ -> []
      in
      Nemesis.gen_restarts rng ~n:spec.n ~avoid:(spared @ victims)
        ~horizon:spec.restart_horizon ~max_windows:2
    else []
  in
  { crashes; k; pct_seed; engine_seed; nemesis; restarts }

(* PCT schedules are heavily skewed, so the slowest process may need the
   whole budget just to take a handful of steps; liveness is only
   monitored on the fair walk, so cap the wall-clock a PCT trial burns. *)
let sched spec t =
  match spec.pct_cap with
  | Some cap when t.k > 0 ->
    let max_steps = min spec.max_steps cap in
    (max_steps, Explore.pct ~seed:t.pct_seed ~n:spec.n ~k:t.k ~depth:max_steps)
  | _ -> (spec.max_steps, Explore.random_walk ())

let prepare t =
  match t.nemesis @ t.restarts with
  | [] -> None
  | faults -> Some (Nemesis.install faults)

(* Leads the monitor list, so a majority-crash trial is diagnosed
   against the emulation's bound, not as a generic liveness failure. *)
let resilience spec run =
  match spec.backend with
  | Backend.Native -> []
  | Backend.Emulated ->
    [
      ( "emulated-resilience",
        fun o -> Monitor.emulated_resilience ~order:spec.n (run o) );
    ]

let fmt_crashes = function
  | [] -> "none"
  | cs ->
    String.concat " " (List.map (fun (p, s) -> Printf.sprintf "p%d@%d" p s) cs)

let sched_desc k =
  if k = 0 then "random-walk" else Printf.sprintf "pct(k=%d)" k

let config ?(between = []) (spec : spec) t =
  let line on key v = if on then [ Config.str key v ] else [] in
  line (spec.crashes <> No_crashes) "crashes" (fmt_crashes t.crashes)
  @ line (spec.pct_cap <> None) "scheduler" (sched_desc t.k)
  @ between
  @ line spec.nemesis "nemesis" (Nemesis.describe t.nemesis)
  @ line spec.restarts "restarts" (Nemesis.describe t.restarts)

let shrink (spec : spec) ~still_fails t =
  match spec.crashes with
  | Fixed _ -> []
  | No_crashes | Drawn _ ->
    let t =
      {
        t with
        crashes =
          Shrink.list_min
            ~still_fails:(fun crashes -> still_fails { t with crashes })
            t.crashes;
      }
    in
    let t =
      if t.k <= 1 then t
      else
        {
          t with
          k =
            Shrink.int_min ~lo:1 t.k ~still_fails:(fun k ->
                still_fails { t with k });
        }
    in
    (* The two timelines, in order; an empty one is not shrunk. *)
    let timeline t (get, set) =
      match get t with
      | [] -> t
      | tl ->
        set t
          (Nemesis.shrink ~still_fails:(fun tl -> still_fails (set t tl)) tl)
    in
    config spec
      (List.fold_left timeline t
         [
           ((fun t -> t.nemesis), fun t nemesis -> { t with nemesis });
           ((fun t -> t.restarts), fun t restarts -> { t with restarts });
         ])
