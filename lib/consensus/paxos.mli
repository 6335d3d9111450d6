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

(** {2 The Disk-Paxos ballot}

    The one phase-1/phase-2 loop in the library: {!run} below, the
    replicated log's per-slot proposer ({!Mm_smr.Replicated_log}) and
    every KV shard call {!ballot}. *)

(** A proposer's block, stored in its SWMR register: the highest ballot
    it joined ([mbal]) and its last accepted ballot and value ([bal],
    [value]). *)
type 'v block = {
  mbal : int;
  bal : int;
  value : 'v option;
}

(** The block every register starts from: no ballot joined, nothing
    accepted. *)
val empty_block : 'v block

(** [ballot blocks ~me ~b ~known v] runs ballot [b] for member [me] of
    the group whose blocks are [blocks] (member [j]'s register is
    [blocks.(j)]).  [known] is [me]'s last written block.

    Phase 1 writes [{known with mbal = b}] and reads the other blocks in
    member order, stopping at one that joined a higher ballot; otherwise
    it adopts the value accepted at the highest ballot, [known]'s
    included, or [v] when none was.  Phase 2 writes [(b, b, chosen)]
    and reads the other blocks again, stopping the same way.

    Returns the block now in [me]'s register, with [Ok chosen] when no
    higher ballot appeared (then [chosen] is decided) or [Error b'] with
    the first higher ballot [b'] seen.  Keeping the returned block as
    the next [known] never regresses an accepted [(bal, value)], as Disk
    Paxos requires.  Runs in process context: one write and up to
    [|blocks| - 1] reads per phase. *)
val ballot :
  'v block Mm_mem.Mem.reg array ->
  me:int ->
  b:int ->
  known:'v block ->
  'v ->
  'v block * ('v, int) result

(** {2 Single-decree consensus} *)

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
