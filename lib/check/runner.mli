(** The generic sweep engine: runs many randomized trials of one
    {!Scenario}, monitors its properties on each, and reports the first
    violation as a replayable, shrunk counterexample.

    Every trial is a pure function of its [trial_seed]: the seed drives
    the scenario's {!Scenario.S.gen} draw (in a fixed order) — inputs,
    fault plan, scheduler choice, engine seed — so {!replay} with the
    reported seed reruns the identical execution, including its trailing
    trace.  Trial seeds themselves come from the [master_seed], so whole
    sweeps are reproducible too.

    Sweeps are embarrassingly parallel: with [jobs > 1] the trials fan
    out across a {!Pool} of OCaml 5 domains.  Reports stay bit-for-bit
    identical to a sequential sweep regardless of [jobs]: the reported
    counterexample is the one with the {e lowest trial index} among all
    violations found (not the first to complete across domains).  It is
    packaged from the execution that detected it — config and trailing
    trace come from that run, and shrinking runs single-threaded on its
    trial — so a sweep executes its violating trial once; only {!replay}
    re-executes a trial from its seed.

    This engine exists exactly once; every checker is a {!Scenario.S}
    module (see {!Registry.all}), driven through {!sweep} and
    {!replay}. *)

(** A property violation, packaged for reporting and replay. *)
type counterexample = {
  trial : int;       (** 0-based index of the violating trial *)
  trial_seed : int;  (** replay with this seed reproduces the run *)
  property : string; (** monitor name, e.g. "termination" *)
  detail : string;   (** the monitor's diagnosis *)
  config : Config.t;  (** the trial's full configuration *)
  shrunk : Config.t;
      (** delta-debugged minimal reproducer (empty when the scenario is
          fixed by construction, e.g. Thm 4.4 stall checks) *)
  trace : Mm_sim.Trace.event list;  (** trailing engine events *)
}

type report = {
  algo : string;
  budget : int;        (** trials requested *)
  trials_run : int;    (** trials covered (stops at first violation) *)
  distinct_trials : int;
      (** distinct generated trials among the [trials_run], by
          generation-stream fingerprint (see {!Mm_rng.Rng.fingerprint})
          salted with the memory backend — a native trial and its
          emulated twin share a draw stream but never a fingerprint *)
  deduped : int;
      (** [trials_run - distinct_trials]: clean duplicates counted but
          not re-executed.  Both numbers are computed from the recorded
          per-trial fingerprints, so they are identical for every
          [jobs] setting. *)
  violation : counterexample option;
}

(** One sweep worker's share of the detection phase: [claimed] trial
    indices taken off the pool's counter, [executed] trials actually run
    through the simulator, [dedup_hits] trials skipped because this
    domain had already seen their fingerprint clean.  Unlike the report,
    these counts depend on cross-domain timing — they localize a scaling
    regression to a domain, they are not part of the deterministic
    result (see [mm check --report-domains]). *)
type domain_stat = { claimed : int; executed : int; dedup_hits : int }

val pp_report : Format.formatter -> report -> unit
val pp_domain_stats : Format.formatter -> domain_stat array -> unit

(** {2 The generic engine} *)

(** [sweep (module Sc) ~params ()] runs a [budget]-trial sweep of
    scenario [Sc] (default budget: [Sc.default_budget]) configured from
    [params] via [Sc.cfg_of_params].

    Every sweep detects through one {!Pool} loop (with one worker it
    runs inline on the calling domain), and every trial builds a fresh
    engine.  The trial hot path is domain-local: between claiming a
    chunk of trial indices and reporting, a worker domain touches no
    shared mutable state.  Two report-invisible mechanisms ride on that
    invariant — each domain keeps a {e private} fingerprint-dedup table
    (clean duplicates are counted in [trials_run] but not re-executed;
    the [distinct_trials] / [deduped] split is recomputed from the
    merged per-trial fingerprints after the pool joins, so it is
    identical at every [jobs] setting); and, when the capped [jobs] is
    above 1, each worker pre-sizes its own minor heap
    ([MM_CHECK_MINOR_HEAP] overrides the default) so clean trials
    complete without triggering a cross-domain stop-the-world minor
    collection, and the caller's minor-heap size is restored afterwards.
    A sequential sweep never touches the GC settings.  Violating
    fingerprints are never memoized, so a duplicate of a violating
    trial always re-executes.

    [jobs] is a {e maximum} degree of parallelism: the sweep caps the
    worker-domain count at [Domain.recommended_domain_count ()], because
    domains beyond the core count only add stop-the-world GC
    synchronization.  The cap is observably safe (reports are
    jobs-invariant) and can be overridden through the
    [MM_CHECK_MAX_DOMAINS] environment variable, which the determinism
    tests use to exercise the parallel path on single-core hosts.

    [chunk] is the number of consecutive trial indices a worker claims
    per atomic operation (see {!Pool.find_first_stats}; default: adaptive).
    Like [jobs], it is report-invisible: lowest index wins regardless of
    how trials were batched.

    @raise Invalid_argument if [jobs < 1] or [chunk < 1]. *)
val sweep :
  Scenario.t ->
  ?master_seed:int ->          (* default 1 *)
  ?budget:int ->               (* default: the scenario's *)
  ?jobs:int ->                 (* default 1; domains to sweep with *)
  ?chunk:int ->                (* default: adaptive; indices per claim *)
  params:Scenario.params ->
  unit ->
  report

(** {!sweep} plus the per-domain detection-phase accounting: one
    {!domain_stat} per worker domain that ran (worker 0 is the calling
    domain; length 1 for a sequential sweep, and possibly fewer than
    [jobs] — the pool never spawns a domain with no chunk to claim).
    The violating trial's detecting execution is counted in its
    domain's [executed]; the single-threaded shrink candidates are not.
    The report is identical to {!sweep}'s. *)
val sweep_stats :
  Scenario.t ->
  ?master_seed:int ->
  ?budget:int ->
  ?jobs:int ->
  ?chunk:int ->
  params:Scenario.params ->
  unit ->
  report * domain_stat array

(** [replay (module Sc) ~params ~trial_seed ()] re-runs the single trial
    identified by [trial_seed] (same derivation as inside {!sweep}) and
    reports it as a 1-trial sweep.  Pass the same [params] as the
    original sweep. *)
val replay :
  Scenario.t -> params:Scenario.params -> trial_seed:int -> unit -> report

(** The scenario's pre-sweep banner line, if it has one. *)
val preamble : Scenario.t -> params:Scenario.params -> string option
