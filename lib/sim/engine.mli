(** The m&m simulation engine.

    An engine owns the network, the shared-memory store, the scheduler
    and the process table.  Processes are spawned as plain functions
    using the {!Proc} operations; the engine executes them one atomic
    step at a time under the chosen scheduling policy, injecting crashes
    and delivering messages between steps.

    Determinism: everything (scheduling, link delays, drops, process
    coins) is driven by streams split from one seed, so a run is a pure
    function of its configuration. *)

type t

type stop_reason =
  | Stopped     (** the [until] predicate became true *)
  | Quiescent   (** every process finished or crashed *)
  | Step_limit  (** [max_steps] reached *)

val pp_stop_reason : Format.formatter -> stop_reason -> unit

(** [create ~domain ~link ~n ()] builds an engine for [n] processes.

    - [seed] drives all randomness (default 0xC0FFEE).
    - [delay] is the link delay policy (default [Uniform (1, 4)]).
    - [sched] is the scheduling policy (default seeded [Random]).
    - [trace_capacity], when positive, enables trace recording of the
      last that-many steps.
    - [backend] selects how the store realises registers (default
      [Native]; see {!Mm_mem.Mem.Backend}).  Under [Emulated], register
      ops are charged to the network stats, crashes shrink the quorum
      (the engine notifies the store on every crash and restart), and an
      op without a live majority blocks: the effect is re-stashed and
      retried with capped exponential backoff — the process is not
      schedulable while backing off, so an outage of [w] steps produces
      O(log w) retries ([Trace.Blocked] events and
      {!Mm_mem.Mem.blocked_ops}), not one per scheduler pick.  The
      backoff resets on the first register op that completes. *)
val create :
  ?seed:int ->
  ?delay:Mm_net.Network.delay ->
  ?sched:Sched.t ->
  ?trace_capacity:int ->
  ?backend:Mm_mem.Mem.Backend.t ->
  domain:Mm_core.Domain.t ->
  link:Mm_net.Network.kind ->
  n:int ->
  unit ->
  t

val n : t -> int
val store : t -> Mm_mem.Mem.store

(** The store's current register backend. *)
val backend : t -> Mm_mem.Mem.Backend.t
val network : t -> Mm_net.Network.t
val domain : t -> Mm_core.Domain.t

(** [spawn t pid main] installs the code of process [pid].
    Raises [Invalid_argument] if [pid] already has code.

    [recover], when given, is the process's crash-recovery entry point:
    after a scheduled restart ({!restart_at}) the process re-enters
    through it as a brand-new fiber.  Everything volatile is gone — the
    old fiber, local bindings, the queued mailbox — so the closure must
    rebuild from what the [Mem] backend preserved: native registers
    survive their owner's crash (§3); under the emulated backend every
    recovery read is an ABD quorum round charged to the network stats
    like any other op.  Without [recover] the process is crash-stop and
    cannot be restarted. *)
val spawn : t -> ?recover:(unit -> unit) -> Mm_core.Id.t -> (unit -> unit) -> unit

(** [crash_at t pid step] schedules a crash: [pid] executes no step at or
    after global step [step].  [crash_at t pid 0] crashes it before it
    takes any step.  Raises [Invalid_argument] on a negative step, if
    [pid] has already crashed, or if [pid] already has a pending crash
    scheduled at a {e different} step (re-scheduling the same step is a
    no-op).  {!crash_at}, {!crash_now} and {!restart_at} share this
    validation family. *)
val crash_at : t -> Mm_core.Id.t -> int -> unit

(** Crash immediately (at the current step). *)
val crash_now : t -> Mm_core.Id.t -> unit

(** [crash_plan t plan] schedules every [(pid, step)] crash of [plan]
    ({!crash_at}) and returns the victim flags: [crashed.(pid)] is true
    iff [plan] names [pid].  An algorithm's [until] predicate reads these
    flags to wait only for processes that never crash; the same array is
    {!summary}'s [crashed].  Raises [Invalid_argument] naming the entry,
    before scheduling anything, on a pid outside [\[0, n)] or a negative
    step. *)
val crash_plan : t -> (int * int) list -> bool array

(** {2 Crash-recovery}

    A restart revives a crashed process: at the scheduled step its
    status returns to [Ready] and a fresh fiber runs the [recover]
    closure given to {!spawn}.  The restart is a host reboot, not a
    resume — volatile state (fiber, mailbox) is lost; register state
    survives per the backend's rules, and the store is notified
    ({!Mm_mem.Mem.note_restart}) so the host rejoins the emulated
    backend's quorum.  Scheduler timeliness promises are NOT restored: a
    timely process that crashes stays off the timely list even after it
    restarts. *)

(** [restart_at t pid step] schedules a restart of [pid] at global step
    [step].  Raises [Invalid_argument] on a negative step, if [pid] was
    spawned without a [recover] closure, if [pid] is neither crashed nor
    scheduled to crash by [step] (no crash to recover from), or if a
    pending restart exists at a {e different} step (re-scheduling the
    same step is a no-op).  A restart due while the process is not
    crashed (e.g. it finished first) is discarded. *)
val restart_at : t -> Mm_core.Id.t -> int -> unit

(** Restart immediately (at the current step). *)
val restart_now : t -> Mm_core.Id.t -> unit

(** Was [pid] spawned with a [recover] closure? *)
val has_recovery : t -> Mm_core.Id.t -> bool

(** {2 Freeze / thaw}

    A frozen process is slow, not dead: it takes no steps while frozen
    but keeps its fiber, mailbox and memory, and resumes exactly where
    it stopped once thawed.  This is the adversary power behind
    "eventually timely": crash-stop cannot model a process that is
    merely late.  If every runnable process is frozen the engine lets
    time pass (messages still deliver, staged actions still fire)
    instead of reporting [Quiescent]. *)

(** [freeze t pid] suspends scheduling of [pid].  Idempotent.  Raises
    [Invalid_argument] if [pid] has already crashed. *)
val freeze : t -> Mm_core.Id.t -> unit

(** [thaw t pid] makes [pid] schedulable again.  Idempotent. *)
val thaw : t -> Mm_core.Id.t -> unit

val is_frozen : t -> Mm_core.Id.t -> bool

(** [at t ~step f] registers a staged action: [f t] runs inside the run
    loop once the global clock reaches [step] (before the next pick).
    Actions fire in (step, registration) order and persist across
    segmented [run] calls; [Mm_check.Nemesis] compiles fault timelines
    onto this hook.  Raises [Invalid_argument] on a negative step. *)
val at : t -> step:int -> (t -> unit) -> unit

type status =
  | Unspawned
  | Ready
  | Done
  | Crashed

val status_of : t -> Mm_core.Id.t -> status

(** Ids that have neither finished nor crashed (spawned or not). *)
val correct : t -> Mm_core.Id.t list

(** Number of correct ids, from counters — O(1), no allocation. *)
val correct_count : t -> int

(** [fold_correct t f init] folds [f] over the correct ids in ascending
    order without building a list — O(n), allocation-free.  Hot-loop
    callers (monitors checked between steps) should prefer this or
    [correct_count] over [correct]. *)
val fold_correct : t -> ('a -> Mm_core.Id.t -> 'a) -> 'a -> 'a

(** [run t ()] executes steps until [until] holds (checked between
    steps), no process is runnable, or [max_steps] (default 1_000_000)
    elapse.  [run] may be called repeatedly to continue a paused run. *)
val run : t -> ?max_steps:int -> ?until:(unit -> bool) -> unit -> stop_reason

(** {2 The run record}

    The costs the paper's claims are about — steps, messages, register
    ops (§5.3) — plus the run's crash plan and trace, reported once by
    the engine.  Every algorithm's outcome embeds one as its [run]
    field instead of re-declaring the counters. *)
type summary = {
  reason : stop_reason;  (** why the last {!run} returned ([Step_limit]
                             before the first) *)
  steps : int;  (** global steps executed *)
  net : Mm_net.Network.stats;
      (** message traffic, emulated-register quorum rounds included *)
  mem : Mm_mem.Mem.counters;  (** register ops, summed over processes *)
  blocked : int;
      (** emulated register ops refused for lack of quorum (0 under the
          native backend) *)
  coin_flips : int;  (** across [Coin] and [Rand_int] *)
  crashed : bool array;  (** the {!crash_plan} victims *)
  trace : Trace.event list;
      (** trailing engine trace (empty unless [trace_capacity] > 0) *)
}

(** The record of the run so far.  O(n + trace), so call it once, after
    the last {!run}. *)
val summary : t -> summary

(** Global step counter. *)
val now : t -> int

(** Steps executed by one process. *)
val steps_of : t -> Mm_core.Id.t -> int

val trace : t -> Trace.t option

(** Schedule recording, for replay-based exploration ({!Mm_check}):
    [record_schedule t] starts logging every pid chosen by the scheduler;
    [schedule t] returns the pids chosen since, in execution order
    (empty if recording was never started).  Feeding that list back as a
    [Sched.Custom] policy replays the interleaving step for step. *)
val record_schedule : t -> unit

val schedule : t -> int list

(** A fresh generator split from the engine's seed, for auxiliary
    experiment randomness that must not perturb the run's own streams. *)
val derive_rng : t -> Mm_rng.Rng.t
