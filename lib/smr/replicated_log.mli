(** A replicated log (multi-decree consensus) over the m&m model.

    This is the downstream artifact the paper's program implies — the
    RDMA state-machine-replication design of the follow-on systems
    (DARE, APUS, Mu), reconstructed from the primitives built here:

    - **slots**: each log position is decided by Disk-Paxos-style
      ballots over per-slot, per-process SWMR registers (the memory
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

    The per-slot register layout and the Disk-Paxos ballot, generalized
    over the decided value type and over the member pids, so higher
    layers (the sharded KV service in [Mm_kv]) can run several
    independent log groups inside one engine.  All [Proc]-touching
    operations must run in process context; {!Slots.peek_decided} is the
    host-side exception. *)

module Slots : sig
  (** One group's per-slot registers: for each slot [s], one proposal
      block per member ([R\[s\]\[i\]], SWMR, owner [pids.(i)]) and one
      decision register ([D\[s\]], owner [pids.(s mod n)]).  Registers
      materialize lazily on first touch; [prefix] keeps groups sharing a
      store apart. *)
  type 'v t

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
  (** Per-member Disk-Paxos proposer state over a {!Slots.t}. *)
  type 'v t

  val create : 'v Slots.t -> me:int -> 'v t

  (** [attempt p ~slot v] runs one ballot proposing [v] at [slot].
      [Some chosen] on success — [chosen] may be an adopted earlier
      proposal rather than [v]; [None] if the ballot was overtaken
      (retry after catching up from the decision register). *)
  val attempt : 'v t -> slot:int -> 'v -> 'v option
end

(** [leader_hint det] is the failure detector's current leader hint (the
    smallest unsuspected index) — where followers forward commands. *)
val leader_hint : Mm_election.Register_fd.t -> int

type outcome = {
  logs : (int * command) list array;
      (** per process: the (slot, command) pairs it applied, in slot order *)
  consistent : bool;  (** no cross-process disagreement at any slot *)
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
