(** A replicated log (multi-decree consensus) over the m&m model.

    This is the downstream artifact the paper's program implies — the
    RDMA state-machine-replication design of the follow-on systems
    (DARE, APUS, Mu), reconstructed from the primitives built here:

    - **slots**: each log position is decided by the Disk-Paxos slot
      machinery single-decree consensus runs on
      ({!Mm_consensus.Paxos.Slots}, {!Mm_consensus.Paxos.Learner}):
      ballots over per-slot, per-process SWMR registers (the memory
      side: a new leader recovers in-flight slots by *reading* the
      previous leader's registers, no message round-trips);
    - **Ω**: leadership comes from the register-heartbeat failure
      detector ({!Mm_election.Register_fd}), needing only one timely
      process and no link synchrony;
    - **messages**: followers forward commands to the leader and the
      leader broadcasts [Learn] notifications, so followers sleep on
      their mailboxes rather than polling registers (the per-slot
      decision register remains the crash-safe fallback, read rarely).

    This module keeps only what a log adds on top: the [Forward]
    message, the replica loop, {!run} and {!agree}.  Every process
    wants to append [commands_per_proc] commands of its own.  Followers
    keep re-forwarding unacknowledged commands to their current leader
    hint (at-least-once; the log layer deduplicates), so commands
    survive leader changes and message-free steady states.  The log
    decides each command as its dense index
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

(** [Forward v] asks the leader hint (the failure detector's smallest
    unsuspected index, {!Mm_election.Register_fd.leader}) to get [v]
    decided; the decision comes back as a {!Mm_consensus.Paxos.Learn}. *)
type Mm_net.Message.payload += Forward of int

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
