(** Mutual exclusion: the paper's §1 motivating example for m&m.

    Two lock implementations over the same harness:

    - {!run_bakery}: Lamport's bakery over shared registers.  While the
      critical section is busy, every process in the doorway *spins*,
      re-reading other processes' registers until the CS frees up.
    - {!run_mm}: a ticket lock in the m&m style.  A process that cannot
      enter *sleeps on its mailbox*; the process leaving the critical
      section reads the waiting array once and sends a wake-up message to
      the next ticket holder.  Waiters perform no shared-memory reads
      while blocked — the "react to data without spinning" benefit of
      message passing.  (Ticket assignment uses the simulator's atomic
      primitive, modelling RDMA fetch-and-add; everything else is plain
      reads/writes and one message per handoff.)

    The harness has every process enter the critical section a fixed
    number of times and verifies mutual exclusion on every entry. *)

type outcome = {
  reason : Mm_sim.Engine.stop_reason;
  entries : int array;          (** completed CS entries per process *)
  safety_violations : int;      (** times two processes overlapped in CS *)
  wait_reads : int array;       (** register reads performed while waiting *)
  wait_reads_local : int array;
      (** the subset of [wait_reads] on registers the waiter owns *)
  spin_reads : int array;
      (** the subset of [wait_reads] that re-checked a register without
          being prompted by a wake-up: loop iterations after the first
          in a busy-wait.  Structurally zero for {!run_mm} (waiters sleep
          on the mailbox) — the §1 invariant {!Mm_check} asserts. *)
  messages_sent : int;
  steps : int;
  mem_total : Mm_mem.Mem.counters;
  mem_blocked : int;
      (** emulated register ops refused for lack of quorum (0 under the
          native backend) *)
  trace : Mm_sim.Trace.event list;
      (** trailing engine trace (empty unless [trace_capacity] > 0) *)
}

(** Spin reads per completed entry, averaged over all processes. *)
val wait_reads_per_entry : outcome -> float

val run_bakery :
  ?seed:int ->
  ?max_steps:int ->
  ?cs_work:int ->
  ?trace_capacity:int ->
  ?prepare:(Mm_sim.Engine.t -> unit) ->
  ?sched:Mm_sim.Sched.t ->
  ?backend:Mm_mem.Mem.Backend.t ->
  n:int ->
  entries:int ->
  unit ->
  outcome

val run_mm :
  ?seed:int ->
  ?max_steps:int ->
  ?cs_work:int ->
  ?trace_capacity:int ->
  ?prepare:(Mm_sim.Engine.t -> unit) ->
  ?sched:Mm_sim.Sched.t ->
  ?backend:Mm_mem.Mem.Backend.t ->
  n:int ->
  entries:int ->
  unit ->
  outcome

(** The intermediate design point the paper's §1 cites as prior art
    (local-spin locks): a ticket lock where each waiter spins on a GRANT
    register *it owns* — so the spinning burns only local memory
    bandwidth, never the interconnect — and the exiting process writes
    the successor's GRANT remotely instead of sending a message.  Same
    structure as {!run_mm} with the wake-up message replaced by a remote
    register write; contrast the three:

    - bakery: remote spinning (interconnect traffic while waiting);
    - local-spin: local spinning (CPU busy, interconnect quiet);
    - m&m: no spinning (CPU free, one message per handoff). *)
val run_local_spin :
  ?seed:int ->
  ?max_steps:int ->
  ?cs_work:int ->
  ?trace_capacity:int ->
  ?prepare:(Mm_sim.Engine.t -> unit) ->
  ?sched:Mm_sim.Sched.t ->
  ?backend:Mm_mem.Mem.Backend.t ->
  n:int ->
  entries:int ->
  unit ->
  outcome
