(** A replicated log (multi-decree consensus) over the m&m model.

    This is the downstream artifact the paper's program implies — the
    RDMA state-machine-replication design of the follow-on systems
    (DARE, APUS, Mu), reconstructed from the primitives built here:

    - **slots**: each log position is decided by Disk-Paxos ballots
      ({!Mm_consensus.Paxos.ballot}, the single-decree protocol's own
      ballot) over per-slot, per-process SWMR registers (the memory
      side: a new leader recovers in-flight slots by *reading* the
      previous leader's registers, no message round-trips);
    - **Ω**: leadership comes from the register-heartbeat failure
      detector ({!Mm_election.Register_fd}), needing only one timely
      process and no link synchrony;
    - **messages**: clients/followers forward commands to the leader and
      the leader broadcasts Learn notifications, so followers sleep on
      their mailboxes rather than polling registers (the per-slot
      decision register remains the crash-safe fallback, read rarely).

    Every process wants to append [commands_per_proc] commands of its
    own.  Followers keep re-forwarding unacknowledged commands to their
    current leader hint (at-least-once; the log layer deduplicates), so
    commands survive leader changes and message-free steady states.
    The log decides each command as its dense index
    [issuer * commands_per_proc + seq].

    Safety invariant (checked by {!consistent}): no two processes ever
    apply different commands at the same slot, regardless of crashes,
    dueling leaders, or schedules. *)

(** A client command: the [seq]-th command issued by process [issuer]. *)
type command = {
  issuer : int;
  seq : int;
}

val pp_command : Format.formatter -> command -> unit

(** {2 Reusable slot machinery}

    The per-slot register layout, the per-slot proposer and the learner,
    generalized over the member pids, so higher layers (the sharded KV
    service in [Mm_kv]) can run several independent log groups inside
    one engine.  All [Proc]-touching operations must run in process
    context; {!Slots.peek_decided} is the host-side exception. *)

(** The log's two messages: [Forward v] asks the leader hint to get [v]
    decided; [Learn (s, v)] tells a member that slot [s] decided [v]. *)
type Mm_net.Message.payload +=
  | Forward of int
  | Learn of int * int

module Slots : sig
  (** One group's per-slot registers: for each slot [s], one proposal
      block per member ([R\[s\]\[i\]], SWMR, owner [pids.(i)]) and one
      decision register ([D\[s\]], owner [pids.(s mod n)]).  Registers
      materialize lazily on first touch, each allocated from its
      owner's sharing set ({!Mm_mem.Mem.group}: the owner, shared with
      the whole group), which [create] validates once for all members
      ({!Mm_mem.Mem.peer_groups});
      [prefix] keeps groups sharing a store apart.  Slots are dense from 0, so the materialized
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
end

module Proposer : sig
  (** Per-member proposer state over a {!Slots.t}: the last block
      written and the next round, per slot, both in
      {!Mm_core.Int_table}s. *)
  type 'v t

  val create : 'v Slots.t -> me:int -> 'v t

  (** [attempt p ~slot v] runs one {!Mm_consensus.Paxos.ballot} proposing
      [v] at [slot]: round [r] of member [me] is ballot
      [r * n + me + 1], starting at round 1.  [Some chosen] on success —
      [chosen] may be an adopted earlier proposal rather than [v];
      [None] if the ballot was overtaken (the next attempt at [slot]
      skips past the overtaking ballot; retry after catching up from
      the decision register). *)
  val attempt : 'v t -> slot:int -> 'v -> 'v option
end

module Learner : sig
  (** One member's view of the log: the slots it has learned (slot →
      value, in an {!Mm_core.Int_table}), its applied prefix, and its
      {!Proposer}.  Values are non-negative ints: the replicated log
      decides command indices, the KV service request ids. *)
  type t

  (** [create slots ~me ~apply] starts with nothing learned or applied.
      [apply ~slot v] is called once per slot, in slot order, as the
      applied prefix passes it. *)
  val create : int Slots.t -> me:int -> apply:(slot:int -> int -> unit) -> t

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

(** [leader_hint det] is the failure detector's current leader hint (the
    smallest unsuspected index) — where followers forward commands. *)
val leader_hint : Mm_election.Register_fd.t -> int

(** [agree logs] holds when no slot maps to two different values across
    [logs] (each a list of (slot, value) pairs). *)
val agree : (int * 'v) list array -> bool

type outcome = {
  logs : (int * command) list array;
      (** per process: the (slot, command) pairs it applied, in slot order *)
  consistent : bool;  (** [agree logs] *)
  all_committed : bool;
      (** every correct process applied every correct process's commands *)
  slots_used : int;   (** highest applied slot + 1, over all processes *)
  duplicate_slots : int;
      (** slots that re-decided an already-applied command (consumed by
          at-least-once forwarding; deduplicated at apply time) *)
  run : Mm_sim.Engine.summary;  (** steps, costs, crashes, trace *)
}

val run :
  ?seed:int ->
  ?max_steps:int ->
  ?trace_capacity:int ->
  ?crashes:(int * int) list ->
  ?prepare:(Mm_sim.Engine.t -> unit) ->
  ?sched:Mm_sim.Sched.t ->
  ?backend:Mm_mem.Mem.Backend.t ->
  n:int ->
  commands_per_proc:int ->
  unit ->
  outcome
