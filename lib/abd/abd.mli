(** ABD: emulating a shared register over message passing.

    The paper's §1 discusses the Attiya–Bar-Noy–Dolev equivalence [11]:
    message passing can simulate shared memory, but only assuming a
    majority of correct processes (and at real communication cost).
    This module implements the multi-writer multi-reader (MWMR) ABD
    atomic register so the experiments can quantify exactly that gap
    against the m&m model's native registers:

    - write(v): query a majority for the highest timestamp, install
      (max+1, writer id) — a Lamport pair, unique across concurrent
      writers — and wait for majority acknowledgements;
    - read(): query a majority, adopt the max-timestamp value, write it
      back to a majority (the read-write-back that makes reads atomic),
      then return.

    Every process doubles as a replica, answering protocol messages
    between its own scripted operations.  With ⌈(n+1)/2⌉ or more crashes
    every operation blocks forever — while a native m&m register is
    still readable by any lone survivor. *)

(** Timestamps: Lamport pairs (counter, writer id), ordered
    lexicographically; (0, 0) is the initial state. *)
type ts = int * int

(** One completed operation, for the atomicity checker. *)
type event = {
  proc : int;
  kind : [ `Write of int | `Read of int ];  (** payload value *)
  ts : ts;           (** timestamp written / adopted *)
  start_step : int;  (** global step at invocation *)
  end_step : int;    (** global step at response *)
}

type outcome = {
  history : event list;        (** completed ops, by completion order *)
  pending : int;               (** operations still blocked at the end *)
  run : Mm_sim.Engine.summary; (** steps, messages, crashes, trace *)
}

(** Per-process scripts: the ops each process performs, in order.
    [`Pause k] idles for [k] of the process's own steps. *)
type op =
  [ `Write of int
  | `Read
  | `Pause of int
  ]

(** [run ~n ~scripts ()] executes the scripts over one MWMR ABD
    register; any process may write. *)
val run :
  ?seed:int ->
  ?max_steps:int ->
  ?trace_capacity:int ->
  ?crashes:(int * int) list ->
  ?prepare:(Mm_sim.Engine.t -> unit) ->
  ?delay:Mm_net.Network.delay ->
  ?backend:Mm_mem.Mem.Backend.t ->
  n:int ->
  scripts:op list array ->
  unit ->
  outcome

(** MWMR atomicity check over the completed history:
    + every read returns a timestamp that was actually written (or 0,
      the initial value);
    + timestamps never regress across real-time-ordered operations
      (which covers both read monotonicity and reads seeing every write
      that completed before they started).
    Returns the list of violated-rule descriptions (empty = atomic). *)
val atomicity_violations : outcome -> string list
