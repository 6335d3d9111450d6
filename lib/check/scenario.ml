type params = {
  graph : Mm_graph.Graph.t option;
  family : string;
  n : int;
  (* How the store realises registers; part of every config fingerprint. *)
  backend : Mm_mem.Mem.Backend.t;
  impl : Mm_consensus.Hbo.impl;
  variant : Mm_election.Omega.variant;
  drop : float;
  expect_stall : bool;
  max_crashes : int option;
  crash_window : int option;
  max_steps : int option;
  max_ops : int option;
  warmup : int option;
  window : int option;
  entries : int option;
  commands : int option;
  (* kv: sharding/load shape; None = drawn per trial.  [local_reads]
     switches the §5.3 leader-local read path (on by default). *)
  shards : int option;
  clients : int option;
  local_reads : bool;
  trace_tail : int;
  (* Draw a staged fault timeline (Nemesis) per trial, and how many
     steps after the last fault clears omega (or the kv recovery
     monitor) may keep converging. *)
  nemesis : bool;
  settle : int option;
  (* Draw crash-then-restart windows (Nemesis.Restart) per trial, for
     the scenarios whose processes carry recovery closures.  Always
     drawn after every other draw, so pre-restart seeds replay
     unchanged. *)
  restarts : bool;
}

let default_params =
  {
    graph = None;
    family = "complete";
    n = 6;
    backend = Mm_mem.Mem.Backend.Native;
    impl = Mm_consensus.Hbo.Trusted;
    variant = Mm_election.Omega.Reliable;
    drop = 0.3;
    expect_stall = false;
    max_crashes = None;
    crash_window = None;
    max_steps = None;
    max_ops = None;
    warmup = None;
    window = None;
    entries = None;
    commands = None;
    shards = None;
    clients = None;
    local_reads = true;
    trace_tail = 30;
    nemesis = false;
    settle = None;
    restarts = false;
  }

module type S = sig
  val name : string
  val doc : string
  val default_budget : int

  type cfg
  type trial
  type outcome

  val cfg_of_params : params -> cfg
  val preamble : cfg -> string option
  val gen : cfg -> Mm_rng.Rng.t -> trial
  val execute : ?arena:Mm_sim.Arena.t -> cfg -> trial -> outcome

  val monitors :
    cfg -> trial -> (string * (outcome -> Monitor.verdict)) list

  val config : cfg -> trial -> Config.t
  val shrink : cfg -> still_fails:(trial -> bool) -> trial -> Config.t
  val trace : outcome -> Mm_sim.Trace.event list
end

type t = (module S)
