module Rng = Mm_rng.Rng
module Network = Mm_net.Network
module Abd = Mm_abd.Abd

let name = "abd"
let doc = "ABD atomic register: completion, atomicity, linearizability"
let default_budget = 200

type cfg = {
  n : int;
  backend : Mm_mem.Mem.Backend.t;
  max_ops : int;
  max_steps : int;
  trace_tail : int;
  nemesis : bool;
}

type trial = {
  scripts : [ `Write of int | `Read | `Pause of int ] list array;
  delay : Network.delay;
  engine_seed : int;
  nemesis : Nemesis.t;
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

let cfg_of_params (p : Scenario.params) =
  (* The Wing-Gong checker is bitmask-indexed (<= 62 events); cap the
     per-process script length so the whole history always fits. *)
  let max_ops = Option.value p.Scenario.max_ops ~default:4 in
  let max_ops = max 1 (min max_ops (62 / max 1 p.Scenario.n)) in
  {
    n = p.Scenario.n;
    backend = p.Scenario.backend;
    max_ops;
    max_steps = Option.value p.Scenario.max_steps ~default:200_000;
    trace_tail = p.Scenario.trace_tail;
    nemesis = p.Scenario.nemesis;
  }

let preamble _ = None

let gen (cfg : cfg) rng =
  let next_val = ref 0 in
  let scripts =
    Array.init cfg.n (fun _ ->
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
  let engine_seed = Rng.int rng 0x3FFF_FFFF in
  (* Drawn last, gated on a sweep-wide constant: older trial seeds
     replay unchanged.  Scripts are short, so the fault horizon is too;
     drops would stall quorum phases forever. *)
  let nemesis =
    if cfg.nemesis then
      Nemesis.gen rng ~n:cfg.n ~avoid:[] ~horizon:4_000 ~max_stages:2
        ~allow_drop:false
    else []
  in
  { scripts; delay; engine_seed; nemesis }

let execute ?arena:_ (cfg : cfg) t =
  let prepare =
    if t.nemesis = [] then None else Some (Nemesis.install t.nemesis)
  in
  Abd.run ~seed:t.engine_seed ~max_steps:cfg.max_steps
    ~trace_capacity:cfg.trace_tail ?prepare ~backend:cfg.backend ~delay:t.delay ~n:cfg.n
    ~scripts:t.scripts ()

let monitors _cfg _t =
  [
    ("abd-complete", Monitor.abd_complete);
    ("abd-atomic", Monitor.abd_atomic);
    ("abd-linearizable", Monitor.abd_linearizable);
  ]

let config (cfg : cfg) t =
  (if cfg.nemesis then [ Config.str "nemesis" (Nemesis.describe t.nemesis) ]
   else [])
  @ Config.str "backend" (Mm_mem.Mem.Backend.name cfg.backend)
  :: Config.str "delay" (delay_desc t.delay)
  :: List.mapi
       (fun i ops -> Config.str (Printf.sprintf "p%d" i) (fmt_script ops))
       (Array.to_list t.scripts)

(* Scripts interlock through globally unique write values, so removing
   operations rewrites the history wholesale; the trial is already
   small (max_ops per process), so only the fault timeline shrinks. *)
let shrink (cfg : cfg) ~still_fails t =
  if (not cfg.nemesis) || t.nemesis = [] then []
  else
    let nemesis' =
      Nemesis.shrink
        ~still_fails:(fun tl -> still_fails { t with nemesis = tl })
        t.nemesis
    in
    [ Config.str "nemesis" (Nemesis.describe nemesis') ]

let trace (o : outcome) = o.Abd.trace
