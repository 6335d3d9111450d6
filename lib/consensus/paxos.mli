(** Leader-based consensus over m&m: shared-memory Paxos driven by Ω.

    The paper's §5 motivates eventual leader election as "the weakest
    failure detector that can solve consensus", citing Paxos-style
    algorithms; its follow-on systems work (RDMA consensus à la
    DARE/APUS/Mu) is exactly this composition.  This module closes the
    loop inside the library: a single-decree, ballot-based consensus in
    the style of Disk Paxos (Gafni & Lamport), adapted to the m&m model:

    - each process i owns one SWMR register R[i] = (mbal, bal, val):
      the highest ballot it joined, and its last accepted (ballot, value);
    - a proposer with ballot b writes b into its own register, reads all
      registers, aborts if it saw a higher ballot, adopts the
      highest-ballot accepted value (else its own input), then accepts
      (writes (b, b, v)) and reads all registers once more — if no higher
      ballot appeared, v is decided;
    - the decision is published in a shared register (crash-safe) AND
      broadcast in a message, so followers *sleep on their mailbox*
      instead of polling shared memory — the m&m touch (they fall back to
      reading the decision register rarely, so no message is load-bearing).

    Safety (agreement + validity) holds regardless of how many processes
    believe they are leader — ballots interlock exactly as in Disk Paxos.
    Liveness needs an eventual single leader, supplied by a pluggable
    oracle.  Registers survive crashes (§3), so a single correct process
    whose oracle says "you lead" decides — tolerance n-1, like the pure
    shared-memory algorithms, but with Paxos's O(n) register ops per
    decision instead of a randomized object's retries. *)

(** Who believes it leads:

    - [Static pid]: an external Ω told everyone [pid] leads from the
      start (the stable case).
    - [Heartbeat]: a built-in register-heartbeat Ω: every process bumps
      ALIVE[i]; processes suspect peers whose counter stalls past an
      adaptive (own-step) timeout; leader = smallest unsuspected id.
      Purely shared-memory, message-free, stabilizes under the
      simulator's schedulers.
    - [Anarchy]: everyone always believes it leads — a stress oracle for
      safety tests (livelock is possible; safety must still hold). *)
type oracle =
  | Static of int
  | Heartbeat
  | Anarchy

type outcome = {
  decisions : int option array;  (** per process; [None] = undecided *)
  decide_step : int option array;
  max_ballot : int;              (** highest ballot any proposer used *)
  run : Mm_sim.Engine.summary;   (** steps, costs, crashes, trace *)
}

(** [run ~n ~inputs ()] runs single-decree Paxos until every process
    that never crashes has decided, or [max_steps] (default 2_000_000).
    {!Decisions} checks the outcome.  Raises [Invalid_argument] when
    [|inputs| <> n] or a [Static] leader is outside [\[0, n)] (nobody
    would ever propose). *)
val run :
  ?seed:int ->
  ?oracle:oracle ->
  ?max_steps:int ->
  ?trace_capacity:int ->
  ?crashes:(int * int) list ->
  ?prepare:(Mm_sim.Engine.t -> unit) ->
  ?sched:Mm_sim.Sched.t ->
  ?backend:Mm_mem.Mem.Backend.t ->
  n:int ->
  inputs:int array ->
  unit ->
  outcome
