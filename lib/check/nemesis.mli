(** Staged fault-injection timelines ("nemesis").

    A timeline is a declarative list of stages, each holding one fault
    over a step window [\[at, at + duration)].  Timelines are drawn
    seed-deterministically ({!gen}) as part of a scenario's replay
    contract, compiled onto the structured adversary APIs
    ([Network.partition]/[heal]/[degrade], [Engine.freeze]/[thaw]/[at],
    [Engine.crash_at]) by {!install}, and minimized by {!shrink}.

    Two invariants shape the design:

    - {b Everything heals.}  Generated stages always clear within the
      caller's horizon, so graceful-degradation monitors can ask for
      convergence after {!heal_step}.
    - {b No message is ever destroyed by a partition.}  Holds only defer
      delivery (the network's No-loss property); only [Degrade] with a
      positive drop rate loses messages, and {!gen} draws that only when
      the caller opts in. *)

type fault =
  | Partition of int list list
      (** links between different listed groups are held *)
  | Degrade of { members : int list; drop : float; extra_delay : int }
      (** every link incident to a member gets extra loss and delay *)
  | Freeze of int list  (** listed processes take no steps (slow, not dead) *)
  | Crash of (int * int) list
      (** burst of [(pid, step)] crash-stops; never drawn by {!gen} —
          scenarios own the crash plan — but available to hand-authored
          timelines *)
  | Restart of int list
      (** crash-recovery window: each listed pid is crashed at [at]
          and takes no step in [at + 1 … at + duration]; it re-enters
          through its [recover] closure at step [at + duration + 1].
          The window is guarded at [at]: a pid already crashed (or
          finished) is left alone.  When the crash takes and the pid
          was spawned with a recovery closure, the revive is an engine
          restart ([Engine.restart_at]) scheduled at [at], not a staged
          action, so the pending revive keeps the run going until it
          lands.  Drawn by {!gen_restarts}, not {!gen}. *)

type stage = {
  at : int;       (** window start (global step) *)
  duration : int; (** window length, >= 1 (ignored for [Crash]) *)
  fault : fault;
}

type t = stage list

(** [validate tl ~n] raises [Invalid_argument] on malformed timelines:
    negative starts, zero-length windows, out-of-range or duplicated
    pids, partitions with fewer than two groups or a pid in two groups,
    degrade drop outside [0, 1), negative delays/crash steps, or two
    restart windows of the same pid overlapping (the engine cannot
    crash a process that is already down). *)
val validate : t -> n:int -> unit

(** [gen rng ~n ~avoid ~horizon ~max_stages ~allow_drop] draws 1 to
    [max_stages] stages, every window contained in [\[0, horizon)].
    Partitions dominate; degrade and freeze stages mix in.  Pids in
    [avoid] (typically the scenario's crash plan) are never frozen.
    Degrade stages carry a positive drop rate only when [allow_drop];
    otherwise they only add delay. *)
val gen :
  Mm_rng.Rng.t ->
  n:int ->
  avoid:int list ->
  horizon:int ->
  max_stages:int ->
  allow_drop:bool ->
  t

(** [gen_restarts rng ~n ~avoid ~horizon ~max_windows] draws a rolling
    sequence of up to [max_windows] single-pid {!Restart} windows,
    strictly sequential (never overlapping, even across pids, so at most
    one process is transiently down at a time — composing safely with a
    scenario crash plan under the emulated backend's majority bound).
    Pids in [avoid] (timely processes, scenario crash victims) are never
    restarted.  Windows that would clear after [horizon] are discarded,
    but every draw still happens — the draw sequence is part of the
    replay contract.  Scenarios draw restart timelines {e last}, gated
    on a sweep-wide flag, so pre-restart seeds replay unchanged. *)
val gen_restarts :
  Mm_rng.Rng.t ->
  n:int ->
  avoid:int list ->
  horizon:int ->
  max_windows:int ->
  t

(** [install tl e] validates [tl] against the engine's process count and
    registers it: crash bursts via [Engine.crash_at], each restart
    window as one guarded [Engine.at] crash at [at] that also schedules
    the revive with [Engine.restart_at], other window boundaries as
    [Engine.at] actions.  Each boundary recomputes the complete fault
    state (heal + restore + thaw-all, then re-apply every stage active at
    that instant), so overlapping windows compose without one stage's end
    un-doing another. *)
val install : t -> Mm_sim.Engine.t -> unit

(** The step by which every fault has cleared (0 for the empty
    timeline).  Convergence monitors measure from here. *)
val heal_step : t -> int

(** Compact one-line rendering for config/replay reports. *)
val describe : t -> string

(** Minimize a failing timeline: drop whole stages (delta debugging),
    then shorten each surviving window to the smallest duration that
    still fails. *)
val shrink : still_fails:(t -> bool) -> t -> t
