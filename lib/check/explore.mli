(** Schedule explorers and fault sweeps.

    Everything here is a deterministic function of an integer seed, so a
    violating run is replayable bit for bit from the seed alone.  The
    explorers are expressed as {!Mm_sim.Sched} policies:

    - {!random_walk} is the oblivious random adversary (the engine's
      default, restated here so sweeps can name it);
    - {!pct} is a PCT-style priority adversary (after Burckhardt et al.,
      "probabilistic concurrency testing"): processes get random
      priorities and at [k - 1] random change points the currently
      strongest process is demoted below everyone.  Because simulated
      m&m processes never block (they spin on receive/yield), strict
      priorities would starve everyone but the leader and void every
      liveness property, so this variant uses priorities as heavy
      sampling *weights* (ratio 4 between adjacent ranks): the schedule
      is extremely skewed — some processes race many rounds ahead —
      yet remains fair in expectation, so termination monitors stay
      sound on PCT trials;
    - {!replay} re-executes a pid sequence recorded with
      {!Mm_sim.Engine.record_schedule}. *)

(** A fresh random-walk policy (identical in distribution to the
    engine's default seeded-random scheduler). *)
val random_walk : unit -> Mm_sim.Sched.t

(** [pct ~seed ~n ~k ~depth] builds the weighted PCT adversary for [n]
    processes with [k >= 1] priority levels ([k - 1] change points)
    drawn over the first [depth] steps.  Raises [Invalid_argument] when
    [k < 1], [n < 1] or [depth < 1].

    Weights: the process of rank r (0 lowest) weighs 4^r, and a
    demotion multiplies by 4^-(n+1).  A double holds 4^511 at most, so
    for [n > 512] ranks shift down by [n - 512] (the top weighs 4^511),
    and ranks that would weigh less than the smallest positive double,
    4^-537 (from [n = 1050] on), weigh that.  A demotion can underflow
    to weight 0; such a process is picked only when every runnable
    weight is 0, and the pick is then the highest runnable pid.

    Cost per pick: a binary search, O(log runnable), over the cached
    prefix sums of the runnable weights.  The sums are recomputed,
    O(runnable), only when the runnable set changes (the view's
    [version], see {!Mm_sim.Sched.view}) or at a change point.

    A pick from a view holding a pid outside [\[0, n)] raises
    [Invalid_argument]. *)
val pct : seed:int -> n:int -> k:int -> depth:int -> Mm_sim.Sched.t

(** [replay pids] follows the recorded pid list; once the list is
    exhausted (or a recorded pid is not runnable, which cannot happen
    when replaying the run that produced it), it falls back to the
    lowest runnable pid. *)
val replay : int list -> Mm_sim.Sched.t

(** [gen_crashes rng ~n ~avoid ~max_crashes ~max_step] draws a crash
    plan: a crash-set size [f] (biased toward [max_crashes] — half the
    draws use the full budget, the sweep's most informative region),
    [f] distinct victims outside [avoid], and per-victim crash steps
    uniform in [\[0, max_step\]]. *)
val gen_crashes :
  Mm_rng.Rng.t ->
  n:int ->
  avoid:int list ->
  max_crashes:int ->
  max_step:int ->
  (int * int) list

(** [gen_drop rng ~max] is a drop probability uniform in [\[0, max\]]. *)
val gen_drop : Mm_rng.Rng.t -> max:float -> float
