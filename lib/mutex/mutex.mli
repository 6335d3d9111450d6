(** Mutual exclusion: the paper's §1 motivating example for m&m.

    Three locks over one harness ({!run}), every process entering the
    critical section a fixed number of times, mutual exclusion verified
    on every entry:

    - [Bakery]: Lamport's bakery over shared registers.  While the
      critical section is busy, every process in the doorway {e spins},
      re-reading other processes' registers: remote spinning,
      interconnect traffic while waiting.
    - [Local_spin]: the prior-art design point the paper's §1 cites
      (local-spin locks).  A ticket lock where each waiter spins on a
      GRANT register {e it owns} — the spinning burns only local memory
      bandwidth, never the interconnect — and the exiting process writes
      the successor's GRANT remotely: local spinning, CPU busy,
      interconnect quiet.
    - [Mm]: the same ticket lock in the m&m style.  A process that
      cannot enter {e sleeps on its mailbox}; the process leaving the
      critical section reads the waiting array once and sends a wake-up
      message to the next ticket holder.  Waiters perform no
      shared-memory reads while blocked — the "react to data without
      spinning" benefit of message passing: no spinning, CPU free, one
      message per handoff.

    Ticket assignment uses the simulator's atomic primitive, modelling
    RDMA fetch-and-add; everything else is plain reads/writes. *)

type algo =
  | Bakery
  | Local_spin
  | Mm

type outcome = {
  entries : int array;          (** completed CS entries per process *)
  safety_violations : int;      (** times two processes overlapped in CS *)
  wait_reads : int array;       (** register reads performed while waiting *)
  wait_reads_local : int array;
      (** the subset of [wait_reads] on registers the waiter owns *)
  spin_reads : int array;
      (** the subset of [wait_reads] that re-checked a register without
          being prompted by a wake-up: loop iterations after the first
          in a busy-wait.  Structurally zero for [Mm] (waiters sleep on
          the mailbox) — the §1 invariant {!Mm_check} asserts. *)
  run : Mm_sim.Engine.summary;  (** steps, messages, register ops, trace *)
}

(** Spin reads per completed entry, averaged over all processes. *)
val wait_reads_per_entry : outcome -> float

(** [run ~algo ~n ~entries ()] has each of [n] processes take the lock
    [algo] [entries] times, holding it for [cs_work] (default 4) of its
    own steps, until every process is done or [max_steps] (default
    5_000_000). *)
val run :
  ?seed:int ->
  ?max_steps:int ->
  ?cs_work:int ->
  ?trace_capacity:int ->
  ?prepare:(Mm_sim.Engine.t -> unit) ->
  ?sched:Mm_sim.Sched.t ->
  ?backend:Mm_mem.Mem.Backend.t ->
  algo:algo ->
  n:int ->
  entries:int ->
  unit ->
  outcome
