(** Eventual leader election (Ω) in the m&m model — paper Figure 3.

    Every process p keeps a badness [counter], a heartbeat [hb] and an
    [active] bit in a register STATE[p] readable by all (§5 assumes the
    complete shared-memory graph).  A process picks as leader the
    contender with the smallest (counter, id); a process that believes
    itself leader increments its heartbeat in shared memory, and other
    processes monitor that heartbeat with adaptive timeouts measured in
    their own steps, accusing (by message) an active process whose
    heartbeat stalls.  Accusations raise the badness counter, so
    eventually the timely process with the smallest badness wins
    everywhere — requiring no link timeliness at all, only one timely
    process (Theorems 5.1 / 5.2).

    The notification mechanism is pluggable: {!Notification.reliable}
    (Figure 4) or {!Notification.lossy} (Figure 5). *)

type variant =
  | Reliable            (** Figure 4 mechanism; reliable links *)
  | Fair_lossy of float (** Figure 5 mechanism; links drop with this prob. *)

type outcome = {
  final_leaders : int option array;
      (** each process's leader output at the end ([None] = ⊥) *)
  agreed_leader : int option;
      (** the common leader if all correct processes agree, else [None] *)
  last_change_step : int;
      (** global step of the last leadership-output change at a correct
          process — the measured convergence time *)
  total_changes : int;
  window_net : Mm_net.Network.stats;
      (** message traffic inside the steady-state window *)
  window_mem : Mm_mem.Mem.counters array;
      (** per-process register activity inside the window *)
  window_emu_msgs : int;
      (** messages the emulated register backend charged inside the
          window (0 under the native backend) *)
  window_start : int;
      (** global step at which the window opened: [warmup] for the fixed
          window; under a {!stop_rule}, the step the held window opened,
          or [warmup] when the run reached its cap without one *)
  run : Mm_sim.Engine.summary;
      (** whole-run steps, costs, crashes and trace ([reason] is the
          window's) *)
}

(** A stop rule for the steady-state window.  Ω promises a stable
    leader {e eventually}, with no bound on when, so the window is judged
    where Ω has held rather than at a fixed step.  It opens at
    [opens_at] (the last scheduled fault: crash, nemesis heal or
    restart-window end), or at once if that step has passed, and
    restarts after every leader-output change at a correct process and,
    when [silent], after every send not charged to emulated register
    rounds.  The run ends once the window has held [window] steps, or at
    the cap of [warmup + window] steps; a run that reaches the cap is
    judged on its last [window] steps, exactly as the fixed window. *)
type stop_rule = {
  opens_at : int;
  silent : bool;
}

(** [run ~variant ~n ()] simulates the algorithm.

    - [timely]: processes guaranteed timely, as [(pid, bound)] (default
      [[(0, 4)]]; §5 requires at least one).
    - [eta]: initial timeout constant η (default 16 — timeouts adapt
      upward anyway).
    - [crashes]: [(pid, step)] injections.
    - [memory_failures]: [(pid, step)] pairs; at the given warmup step the
      registers hosted at [pid] become omission-faulty (writes silently
      lost — see {!Mm_mem.Mem.fail_host_memory}).  The process itself
      keeps running: this is a MEMORY failure, not a crash, probing the
      paper's §6 question about failures of the shared memory.
    - [warmup]: steps to run before the measurement window (default
      60_000); [window]: steps of steady-state measurement (default
      20_000).  The run executes warmup + window steps in total, unless
      [stop_rule] ends it earlier; without one the window is fixed, from
      [warmup] to [warmup + window].
    - [delay], [seed], [sched_base] configure the engine; the timeliness
      list is enforced on top of the base policy. *)
val run :
  ?seed:int ->
  ?eta:int ->
  ?trace_capacity:int ->
  ?timely:(int * int) list ->
  ?crashes:(int * int) list ->
  ?memory_failures:(int * int) list ->
  ?warmup:int ->
  ?window:int ->
  ?stop_rule:stop_rule ->
  ?delay:Mm_net.Network.delay ->
  ?prepare:(Mm_sim.Engine.t -> unit) ->
  ?sched_base:Mm_sim.Sched.base ->
  ?backend:Mm_mem.Mem.Backend.t ->
  variant:variant ->
  n:int ->
  unit ->
  outcome

(** [holds o] — the Ω property as observed: all correct processes ended
    agreeing on one correct leader and no change happened inside the
    measurement window.  {!Mp_omega} outcomes are judged the same way. *)
val holds : outcome -> bool

(** [leader_log eng ~crashed] is the measurement harness both Ω
    implementations share.  [report pid l] records that [pid]'s leader
    output changed to [l] (a change at a process in [crashed] is not
    counted); [measure ~opens_at ~silent ~window ~cap] runs the engine
    to [opens_at], then applies the {!stop_rule} with that window length
    and step cap, and builds the outcome.  [opens_at = cap - window] is
    the fixed window. *)
val leader_log :
  Mm_sim.Engine.t ->
  crashed:bool array ->
  (int -> int -> unit)
  * (opens_at:int -> silent:bool -> window:int -> cap:int -> outcome)
