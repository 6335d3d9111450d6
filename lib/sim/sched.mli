(** Scheduling policies.

    The scheduler decides which runnable process executes the next step.
    The base policies model different adversaries:

    - [Round_robin]: the fair synchronous-ish schedule.
    - [Random]: the oblivious random adversary (seeded, reproducible).
    - [Custom f]: a programmable adversary; [f] sees the step number and
      each process's step count and picks any runnable process.

    Independently, a set of processes can be declared *timely* with bound
    [i], enforcing paper §3's pairwise timeliness: p is scheduled before
    any other process accumulates [i] steps since p's last step.  All
    remaining processes stay asynchronous (fully at the base policy's
    mercy). *)

(** The scheduler's (reusable) window onto the engine state.  To keep the
    engine's hot loop allocation-free, a single [view] is allocated per
    engine and mutated in place before every pick: [runnable] is a scratch
    array whose first [count] entries are the runnable pids in ascending
    order; entries at and beyond [count] are stale garbage.

    Only the engine and {!make_view} write a view's runnable prefix
    ([count], [runnable], [mask]).  The engine bumps [version] on every
    change to it; {!make_view} starts it at 0.  So while a view
    (compared physically) keeps its [version], its runnable set is
    unchanged, and a [Custom] policy may cache anything it derives from
    that set on the pair (view, version). *)
type view = {
  mutable now : int;     (** global step number *)
  mutable count : int;   (** number of valid entries in [runnable] *)
  runnable : int array;  (** runnable pids, ascending, valid in [0, count) *)
  mask : Bytes.t;        (** membership bitmap mirroring the valid prefix *)
  mutable version : int; (** bumped on every change to the valid prefix *)
  steps : int -> int;    (** per-process executed step count *)
}

(** [make_view pids] builds a fresh view whose runnable set is [pids]
    (ascending); for tests and custom policies. [now] defaults to 0 and
    [steps] to [fun _ -> 0]. *)
val make_view : ?now:int -> ?steps:(int -> int) -> int list -> view

(** [view_mem view p] tests membership of [p] in the valid prefix.
    O(1): reads the [mask] bitmap, which whoever mutates [runnable]
    keeps in sync (the engine, or [make_view] for test views). *)
val view_mem : view -> int -> bool

type base =
  | Round_robin
  | Random
  | Custom of (view -> int)

type t

(** [create ?timely base] builds a policy.  [timely] lists [(pid, i)]
    pairs; bound [i >= 2]. *)
val create : ?timely:(int * int) list -> base -> t

val timely : t -> (int * int) list

(** [pick t rng view] chooses the next process to run.
    Raises [Invalid_argument] when [view.runnable] is empty or the custom
    function picks a non-runnable process. *)
val pick : t -> Mm_rng.Rng.t -> view -> int

(** Whether any process is still tracked as timely.  When false,
    {!note_step} is a no-op. *)
val has_timely : t -> bool

(** [note_step t ~pid ~n] informs the timeliness tracker that [pid] just
    executed a step in a system of [n] processes. *)
val note_step : t -> pid:int -> n:int -> unit

(** [note_crash t ~pid] removes a crashed process from timeliness
    tracking (a crashed timely process stops being timely). *)
val note_crash : t -> pid:int -> unit
