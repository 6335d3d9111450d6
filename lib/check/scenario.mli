(** The checker abstraction: one module per checkable algorithm.

    A scenario packages everything {!Runner.sweep} needs to drive a
    seeded property-checking sweep over one algorithm:

    - {!S.gen} draws a complete trial description — inputs, fault plan,
      scheduler choice, engine seed — from one RNG in a {e fixed order},
      so a trial is a pure function of its trial seed (the part every
      scenario shares is drawn, run, reported and shrunk by
      {!Fault_plan});
    - {!S.execute} runs the drawn trial and returns the outcome;
    - {!S.monitors} names the properties asserted on that trial (the
      set may depend on the draw: liveness is only monitored on fair
      random-walk, fault-free trials);
    - {!S.config} renders the draw as typed report lines;
    - {!S.shrink} delta-debugs a violating trial along its
      scenario-specific dimensions, re-running candidates through the
      [still_fails] oracle the runner supplies.

    The runner owns everything else — trial-seed derivation, the
    sweep loop, lowest-index-wins determinism, replay —
    exactly once, for every scenario.  {!Registry.all} is the single
    source of truth for which scenarios exist; the CLI, the smoke
    aliases and the determinism tests all enumerate it. *)

(** Scenario-independent knobs, one record for all scenarios.  Every
    scenario reads the subset it understands from {!S.cfg_of_params}
    and ignores the rest; [None] means "use the scenario's default".
    The CLI builds one [params] from its flags and passes it to every
    scenario uniformly. *)
type params = {
  graph : Mm_graph.Graph.t option;
      (** shared-memory graph (hbo); default: complete on [n] *)
  family : string;  (** display name of the graph family *)
  n : int;  (** number of processes (scenarios without a graph) *)
  backend : Mm_mem.Mem.Backend.t;
      (** how the store realises registers (native m&m vs ABD-emulated);
          every scenario threads it into the engine and the runner salts
          the config fingerprint with it.  Under [Emulated], every
          scenario that allocates registers (all but abd) runs the
          resilience-bound monitor ({!Fault_plan.resilience}) *)
  impl : Mm_consensus.Hbo.impl;  (** hbo consensus-object implementation *)
  variant : Mm_election.Omega.variant;  (** omega notification mechanism *)
  drop : float;  (** max drop probability for omega's lossy variant *)
  expect_stall : bool;  (** hbo: check the Thm 4.4 stall mode instead *)
  max_crashes : int option;
  crash_window : int option;
  max_steps : int option;
  max_ops : int option;
      (** abd: per-process script length cap (default 4); kv: a trial's
          op count (default: drawn).  Neither is capped: {!Lin} checks
          histories of any length *)
  warmup : int option;  (** omega *)
  window : int option;  (** omega *)
  entries : int option;  (** mutex: CS entries per process (default: drawn) *)
  commands : int option;  (** smr: commands per process (default: drawn) *)
  shards : int option;  (** kv: shard count (default: drawn per trial) *)
  clients : int option;  (** kv: open-loop client count (default: drawn) *)
  local_reads : bool;  (** kv: serve reads at the leader per §5.3 (default on) *)
  trace_tail : int;  (** trailing trace events kept for reports *)
  nemesis : bool;
      (** draw a staged fault timeline ({!Nemesis}) per trial and run
          the graceful-degradation monitors *)
  settle : int option;
      (** omega/kv + --nemesis: steps after the last fault clears within
          which leadership must stop changing (omega) or every request
          from before the heal must complete (kv); must be positive *)
  restarts : bool;
      (** draw crash-then-restart windows ({!Nemesis.Restart}) per trial
          for the scenarios whose processes carry recovery closures
          (omega, paxos, smr, kv; the rest ignore the flag), and run the
          durability / recovery-liveness monitors.  Restart draws come
          after every other draw, so pre-restart seeds replay
          unchanged. *)
}

(** [n = 6], complete graph family, trusted impl, reliable variant,
    [drop = 0.3], 30 trailing trace events, everything else default. *)
val default_params : params

(** {2 The scenario interface} *)

module type S = sig
  val name : string  (** CLI target and report label, e.g. ["hbo"] *)

  val doc : string  (** one-line description for [--help] *)

  val default_budget : int  (** trials per sweep when unspecified *)

  type cfg  (** resolved sweep-wide configuration *)

  type trial  (** one complete trial description, drawn by {!gen} *)

  type outcome  (** what {!execute} returns *)

  (** Resolve {!params} into the scenario's configuration.  May raise
      [Invalid_argument] (e.g. [expect_stall] on a graph with no
      SM-cut). *)
  val cfg_of_params : params -> cfg

  (** Optional line the CLI prints before sweeping (e.g. the Thm 4.3
      crash bound of the graph under test). *)
  val preamble : cfg -> string option

  (** Draw a full trial from [rng].  The draw order is part of the
      scenario's replay contract: never reorder draws, or recorded
      trial seeds stop reproducing. *)
  val gen : cfg -> Mm_rng.Rng.t -> trial

  (** Run the trial on a fresh engine.  Must be deterministic in
      [(cfg, trial)].  [arena] is ignored; it is kept only for the
      benchmark program in [perfbench/] (see {!Mm_sim.Arena}). *)
  val execute : ?arena:Mm_sim.Arena.t -> cfg -> trial -> outcome

  (** The named property monitors asserted on this trial.  The list may
      depend on the draw — liveness monitors are typically included
      only on fair, fault-free trials. *)
  val monitors :
    cfg -> trial -> (string * (outcome -> Monitor.verdict)) list

  (** The trial's configuration, as typed report lines. *)
  val config : cfg -> trial -> Config.t

  (** Delta-debug [trial] along the scenario's shrinkable dimensions.
      [still_fails t'] re-executes candidate [t'] and reports whether
      the {e same} property still fails; the result is the minimal
      reproducer's report lines (empty when nothing shrinks, e.g. a
      scenario fixed by construction). *)
  val shrink : cfg -> still_fails:(trial -> bool) -> trial -> Config.t

  (** The outcome's trailing engine trace, for the report. *)
  val trace : outcome -> Mm_sim.Trace.event list
end

type t = (module S)
