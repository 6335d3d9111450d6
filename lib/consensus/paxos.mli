(** Leader-based consensus over m&m: shared-memory Paxos driven by Ω.

    The paper's §5 motivates eventual leader election as "the weakest
    failure detector that can solve consensus", citing Paxos-style
    algorithms; its follow-on systems work (RDMA consensus à la
    DARE/APUS/Mu) is exactly this composition.  This module closes the
    loop inside the library: ballot-based consensus in the style of Disk
    Paxos (Gafni & Lamport), adapted to the m&m model, and the one slot
    machinery that single-decree {!run}, the replicated log
    ({!Mm_smr.Replicated_log}) and every KV shard decide through:

    - for each slot [s], each member [i] owns one SWMR register
      [R\[s\]\[i\]] = (mbal, bal, val): the highest ballot it joined,
      and its last accepted (ballot, value);
    - a proposer with ballot b writes b into its own register, reads all
      registers, aborts if it saw a higher ballot, adopts the
      highest-ballot accepted value (else its own input), then accepts
      (writes (b, b, v)) and reads all registers once more — if no higher
      ballot appeared, v is decided;
    - the decision is published in the slot's decision register [D\[s\]]
      (crash-safe) AND broadcast as a [Learn (s, v)] message, so
      followers *sleep on their mailbox* instead of polling shared
      memory — the m&m touch (they fall back to reading the decision
      register rarely, so no message is load-bearing).

    {!run} is slot 0 of one group: its registers are [R\[0\]\[i\]],
    [D\[0\]] and the detector's [ALIVE\[i\]], and no register of a
    later slot is ever materialized.

    Safety (agreement + validity) holds regardless of how many processes
    believe they are leader — ballots interlock exactly as in Disk Paxos.
    Liveness needs an eventual single leader, supplied by a pluggable
    oracle.  Registers survive crashes (§3), so a single correct process
    whose oracle says "you lead" decides — tolerance n-1, like the pure
    shared-memory algorithms, but with Paxos's O(n) register ops per
    decision instead of a randomized object's retries. *)

(** {2 The Disk-Paxos ballot}

    The one phase-1/phase-2 loop in the library.  Its caller is
    {!Proposer.attempt}, which {!run}, the replicated log and every KV
    shard reach through their {!Learner}. *)

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

(** {2 The slot machinery}

    The per-slot register layout, the per-slot proposer and the learner,
    generalized over the member pids, so several groups (the sharded KV
    service's shards) can decide inside one engine.  All [Proc]-touching
    operations must run in process context; the [peek_*] functions are
    the host-side exception. *)

(** [Learn (s, v)] tells a member that slot [s] decided [v]: the one
    decision broadcast. *)
type Mm_net.Message.payload += Learn of int * int

module Slots : sig
  (** One group's per-slot registers: for each slot [s], one proposal
      block per member ([R\[s\]\[i\]], SWMR, owner [pids.(i)]) and one
      decision register ([D\[s\]], owner [pids.(s mod n)]).  Registers
      materialize lazily on first touch, each allocated from its
      owner's sharing set ({!Mm_mem.Mem.group}: the owner, shared with
      the whole group), which [create] validates once for all members
      ({!Mm_mem.Mem.peer_groups}); [prefix] keeps groups sharing a
      store apart.  Slots are dense from 0, so the materialized
      registers sit in {!Mm_core.Int_table}s: finding a slot's
      registers is an array index, with no hashing on the per-step
      path. *)
  type 'v t

  (** Raises [Invalid_argument] when [pids] is empty or the store's
      domain does not let the group share registers. *)
  val create :
    Mm_mem.Mem.store -> pids:Mm_core.Id.t array -> prefix:string -> 'v t

  val group_size : 'v t -> int

  (** [read_decided t s] is the §5.3 local-read primitive: one register
      read of the decision register — no message round-trips.  A leader
      that has applied every decided slot serves reads from its own
      state after one such [None]-returning read. *)
  val read_decided : 'v t -> int -> 'v option

  val write_decision : 'v t -> int -> 'v -> unit

  (** Host-side decided-slot lookup (no access-control or step
      accounting; for monitors and tests). *)
  val peek_decided : 'v t -> int -> 'v option

  (** [peek_max_ballot t s] is the highest ballot any member joined at
      slot [s] (the largest [mbal] among its blocks; 0 when none was
      materialized).  Host-side, like {!peek_decided}. *)
  val peek_max_ballot : 'v t -> int -> int
end

module Proposer : sig
  (** Per-member proposer state over a {!Slots.t}: the last block
      written and the next round, per slot, both in
      {!Mm_core.Int_table}s. *)
  type 'v t

  val create : 'v Slots.t -> me:int -> 'v t

  (** [restore p ~slot] reads [me]'s own block at [slot] (one register
      read) and keeps it as the last block written: a recovering member
      must not regress an accepted [(bal, value)] its earlier
      incarnation wrote. *)
  val restore : 'v t -> slot:int -> unit

  (** [attempt p ~slot v] runs one {!ballot} proposing [v] at [slot]:
      round [r] of member [me] is ballot [r * n + me + 1], starting at
      round 0.  [Some chosen] on success — [chosen] may be an adopted
      earlier proposal rather than [v]; [None] if the ballot was
      overtaken (the next attempt at [slot] skips past the overtaking
      ballot; retry after catching up from the decision register). *)
  val attempt : 'v t -> slot:int -> 'v -> 'v option
end

module Learner : sig
  (** One member's view of the log: the slots it has learned (slot →
      value, in an {!Mm_core.Int_table}), its applied prefix, and its
      {!Proposer}.  Values are non-negative ints: {!run} decides
      inputs, the replicated log command indices, the KV service
      request ids. *)
  type t

  (** [create slots ~me ~apply] starts with nothing learned or applied.
      [apply ~slot v] is called once per slot, in slot order, as the
      applied prefix passes it. *)
  val create : int Slots.t -> me:int -> apply:(slot:int -> int -> unit) -> t

  (** [restore l ~slot] is {!Proposer.restore} on [l]'s proposer. *)
  val restore : t -> slot:int -> unit

  (** [learn l s v] records a [Learn (s, v)] message. *)
  val learn : t -> int -> int -> unit

  (** [drain l ~read_register] applies learned slots from the applied
      prefix on; at the first slot not learned it reads that slot's
      decision register when [read_register] (and goes on if it was
      decided), else stops. *)
  val drain : t -> read_register:bool -> unit

  (** [propose l v] runs one ballot for [v] at the first unapplied slot.
      A win writes the decision register, sends [Learn] to the other
      members in member order and drains without reading registers; a
      loss learns the slot from its decision register if it is decided
      there and yields. *)
  val propose : t -> int -> unit
end

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
  max_ballot : int;              (** highest ballot any process joined *)
  run : Mm_sim.Engine.summary;   (** steps, costs, crashes, trace *)
}

(** [run ~n ~inputs ()] runs single-decree Paxos until every process
    that never crashes has decided, or [max_steps] (default 2_000_000).
    Each process is one {!Learner} of slot 0 that proposes its input
    whenever its oracle says it leads; a restarted process
    {!Learner.restore}s its block and reads [D\[0\]] first.
    {!Decisions} checks the outcome.  Raises [Invalid_argument] when
    [|inputs| <> n], an input is negative (a {!Learner} decides
    non-negative ints) or a [Static] leader is outside [\[0, n)]
    (nobody would ever propose). *)
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
