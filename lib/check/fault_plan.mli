(** The fault plan: the part of a trial every scenario shares.

    A trial's faults are a crash-stop plan, a scheduler (fair random
    walk or a weighted PCT adversary, {!Explore}), an engine seed, a
    staged nemesis timeline and crash-recovery restart windows
    ({!Nemesis}).  This module is their one owner.  A scenario states
    its differences as constants in a {!spec} and then, in one call
    each:

    - draws the plan ({!crashes}, then {!draw}) after its own inputs;
    - runs it ({!sched} for the step budget and scheduler, {!prepare}
      for the engine hook installing [nemesis @ restarts]);
    - monitors it ({!resilience}: the emulated backend's quorum bound);
    - reports it ({!config});
    - shrinks it ({!shrink}): crashes, then [k], then the nemesis
      timeline, then the restart windows.

    The draw order — [k]/[pct_seed] (scenarios with a scheduler), then
    [engine_seed], nemesis, restarts — is part of every scenario's replay
    contract: later additions are drawn last, so older trial seeds
    replay unchanged. *)

(** {2 Crash budgets} *)

(** [cap_crashes backend ~n ~native_default] is the default crash
    budget for a scenario: [native_default] under [Native], capped to a
    minority ([(n-1)/2]) under [Emulated] so default sweeps stay inside
    the emulation's wait-freedom bound.  Explicit [--crashes] overrides
    bypass this — that is how a sweep deliberately probes past the
    bound. *)
val cap_crashes :
  Mm_mem.Mem.Backend.t -> n:int -> native_default:int -> int

(** [restarts_safe backend ~n ~ncrashes] gates a trial's restart draw:
    under [Emulated], one transiently-down process on top of [ncrashes]
    crash-stops must still leave a live majority of [n], or every
    register op inside the window would block at the emulation's
    resilience bound — a red sweep the restart machinery did not cause.
    Always true under [Native]. *)
val restarts_safe : Mm_mem.Mem.Backend.t -> n:int -> ncrashes:int -> bool

(** {2 The spec} *)

(** Where a scenario's crash plan comes from. *)
type crashes =
  | No_crashes
      (** crash-free scenario: no draw, no report line, no shrink leg *)
  | Fixed of (int * int) list
      (** fixed by construction (hbo's Thm 4.4 SM-cut): reported, never
          drawn, and the whole plan is left unshrunk *)
  | Drawn of { max_crashes : int; window : int; avoid : int list }
      (** {!Explore.gen_crashes} over the first [window] steps, never
          crashing [avoid]; [avoid] is never restarted either *)

(** [drawn p ~n ~native_default ~default_window] resolves the sweep's
    crash flags: [--crashes] if given, else [native_default] capped by
    {!cap_crashes} on [n] (forced only then); [--crash-window] if given,
    else [default_window]. *)
val drawn :
  ?avoid:int list ->
  Scenario.params ->
  n:int ->
  native_default:int Lazy.t ->
  default_window:int ->
  crashes

(** A scenario's fault-plan constants. *)
type spec = {
  n : int;  (** processes the faults range over *)
  backend : Mm_mem.Mem.Backend.t;
  crashes : crashes;
  pct_cap : int option;
      (** [None]: no scheduler draw (the engine's default); [Some c]:
          random walk or PCT, a PCT run capped at [c] steps *)
  max_steps : int;  (** the run's step budget *)
  nemesis : bool;  (** draw and report a nemesis timeline *)
  horizon : int;  (** every nemesis window clears by this step *)
  stages : int;  (** at most this many nemesis stages *)
  allow_drop : bool;  (** nemesis degrade stages may lose messages *)
  restarts : bool;  (** draw and report restart windows *)
  restart_horizon : int;  (** every restart window clears by this step *)
  quorum : int;
      (** processes the emulated majority of {!restarts_safe} is
          counted over *)
}

(** [spec p ~n ~crashes ~max_steps]: [backend], [nemesis] and
    [restarts] from [p]; a PCT cap of 20 000 steps; up to 3 drop-free
    nemesis stages and the restart windows within
    [min (max_steps / 4) 20_000]; the restart gate on [n].  Scenarios
    override the fields they differ in. *)
val spec :
  Scenario.params -> n:int -> crashes:crashes -> max_steps:int -> spec

(** {2 The plan} *)

type t = {
  crashes : (int * int) list;  (** [(pid, step)] crash-stops *)
  k : int;  (** 0 = random walk, else PCT priority levels *)
  pct_seed : int;
  engine_seed : int;
  nemesis : Nemesis.t;
  restarts : Nemesis.t;
}

(** Draw the crash plan alone (empty for [No_crashes], no draw for
    [Fixed]) — for a scenario that draws something between the crashes
    and the rest (omega's drop rate). *)
val crashes : spec -> Mm_rng.Rng.t -> (int * int) list

(** Draw the plan: [crashes] (drawn by {!crashes} when omitted), then
    [k] and [pct_seed] when the spec has a scheduler, [engine_seed], the
    nemesis timeline (never freezing a crash victim) and the restart
    windows (gated on {!restarts_safe}). *)
val draw : ?crashes:(int * int) list -> spec -> Mm_rng.Rng.t -> t

(** The trial's step budget — [max_steps], capped at [pct_cap] on PCT
    trials — and its scheduler. *)
val sched : spec -> t -> int * Mm_sim.Sched.t

(** The engine hook installing [nemesis @ restarts]; [None] when both
    are empty. *)
val prepare : t -> (Mm_sim.Engine.t -> unit) option

(** The ["emulated-resilience"] monitor under [Emulated] (a register op
    may block only once a majority of the [n] hosts is down), nothing
    under [Native]. *)
val resilience :
  spec ->
  blocked:('o -> int) ->
  crashed:('o -> bool array) ->
  (string * ('o -> Monitor.verdict)) list

(** The report lines: ["crashes"] (unless [No_crashes]) and
    ["scheduler"] (with a scheduler), then [between], then ["nemesis"]
    and ["restarts"] when drawn. *)
val config : ?between:Config.t -> spec -> t -> Config.t

(** Minimize a violating plan — the crash set, then [k] (from 1), then
    the nemesis timeline, then the restart windows; an empty leg (or
    [k <= 1]) is skipped — and return the minimum's {!config} lines
    ([[]] for a [Fixed] plan).  [still_fails] re-runs a candidate. *)
val shrink : spec -> still_fails:(t -> bool) -> t -> Config.t
