(** Property monitors: reusable predicates over run outcomes (and over
    recorded per-step trace events), each returning [Pass] or a [Fail]
    carrying a human-readable diagnosis for the counterexample report.

    The consensus monitors encode Theorems 4.1–4.3 (agreement, validity,
    termination under represented majority) and the Theorem 4.4
    expected-failure mode; the Ω monitors encode Theorems 5.1/5.2
    (eventual stable correct leader, steady-state message silence); the
    ABD monitors check register atomicity both by protocol timestamps
    and by the value-level Wing–Gong {!Lin} checker. *)

type verdict =
  | Pass
  | Fail of string

val is_pass : verdict -> bool

(** [first_failure monitors o] runs the named monitors in order and
    returns the first failing (name, diagnosis), if any. *)
val first_failure :
  (string * ('o -> verdict)) list -> 'o -> (string * string) option

(** {2 Backend-generic monitors} *)

(** Resilience bound of ABD-emulated registers (arXiv 1906.00298,
    arXiv 2012.10846), over any algorithm's run record ([blocked] ops,
    [crashed] victims); [order] is n.  Passes when no op blocked.  Fails
    when ops blocked below the minority bound (emulation bug), and fails
    — with a diagnosis naming the bound and noting native registers
    tolerate the crash set — when a majority crash cost the emulation
    its wait-freedom.  List it before termination-style monitors so the
    backend-specific diagnosis wins. *)
val emulated_resilience : order:int -> Mm_sim.Engine.summary -> verdict

(** {2 Per-step monitors (over recorded trace events)} *)

(** [no_sends_after ~step events] fails if any [Sent] event is recorded
    at or after [step] — the steady-state-silence property of Thm 5.1
    evaluated step by step on the trace. *)
val no_sends_after : step:int -> Mm_sim.Trace.event list -> verdict

(** {2 Consensus: HBO (Figure 2, Theorems 4.1–4.4) and Paxos}

    [agreement] and [validity] judge any run's per-process decisions
    ({!Mm_consensus.Decisions}). *)

val agreement : int option array -> verdict
val validity : inputs:int array -> int option array -> verdict

(** Termination within the step budget.  The diagnosis explains whether
    the crash set left a represented majority (checker or budget bug) or
    broke it (the crash budget exceeded what [graph] tolerates). *)
val hbo_termination :
  graph:Mm_graph.Graph.t -> Mm_consensus.Hbo.outcome -> verdict

(** Expected-failure mode for SM-cut scenarios (Thm 4.4): fails when
    every correct process decided — i.e. consensus terminated on a
    configuration where it must stall. *)
val hbo_stalls : Mm_consensus.Hbo.outcome -> verdict

(** {2 Ω leader election (Figures 3–5, Theorems 5.1/5.2)} *)

(** Eventually one correct leader, stable before the window opened. *)
val omega_stable : Mm_election.Omega.outcome -> verdict

(** No messages sent inside the steady-state window. *)
val omega_silent : Mm_election.Omega.outcome -> verdict

(** Silence modulo emulation: every message inside the steady-state
    window is accounted to an emulated register quorum round.  Replaces
    {!omega_silent} when the scenario sweeps the emulated backend (the
    protocol is still silent; its registers are not). *)
val omega_silent_emulated : Mm_election.Omega.outcome -> verdict

(** Graceful degradation under a healed adversary: every fault cleared
    by [heal_by], so a correct leader must be agreed and leadership must
    stop changing within [settle] steps of the heal. *)
val omega_converges :
  heal_by:int -> settle:int -> Mm_election.Omega.outcome -> verdict

(** {2 ABD register (§1 baseline)} *)

(** Every scripted operation completed (no crashes injected). *)
val abd_complete : Mm_abd.Abd.outcome -> verdict

(** Timestamp-level atomicity ({!Mm_abd.Abd.atomicity_violations}). *)
val abd_atomic : Mm_abd.Abd.outcome -> verdict

(** Value-level linearizability of the completed history ({!Lin}). *)
val abd_linearizable : Mm_abd.Abd.outcome -> verdict

(** Ω-driven shared-memory Paxos (§5 composition): every correct
    process decided within the step budget.  Only sound on fair
    schedules with a non-adversarial oracle and no crashes. *)
val paxos_termination : Mm_consensus.Paxos.outcome -> verdict

(** {2 Mutual exclusion (§1 motivating example)} *)

(** No two processes ever overlapped in the critical section. *)
val mutex_exclusion : Mm_mutex.Mutex.outcome -> verdict

(** The §1 invariant of the m&m lock: waiters sleep on their mailbox,
    so no register is ever re-read while blocked except in direct
    response to a wake-up message ([spin_reads] all zero). *)
val mutex_no_spin : Mm_mutex.Mutex.outcome -> verdict

(** Every process completed all [entries] critical-section entries.
    Only sound on fair (random-walk) schedules. *)
val mutex_progress : entries:int -> Mm_mutex.Mutex.outcome -> verdict

(** {2 Replicated log (multi-decree consensus)} *)

(** No slot maps to two different commands anywhere. *)
val smr_consistent : Mm_smr.Replicated_log.outcome -> verdict

(** Every applied log is contiguous from slot 0 and any two logs agree
    on their common prefix — no divergent commits. *)
val smr_prefix : Mm_smr.Replicated_log.outcome -> verdict

(** Every correct process applied every correct process's commands.
    Only sound on fair, crash-free trials. *)
val smr_committed : Mm_smr.Replicated_log.outcome -> verdict

(** {2 Sharded KV service ({!Mm_kv.Kv})} *)

(** Within every shard, no slot maps to two different requests. *)
val kv_log_consistent : Mm_kv.Kv.outcome -> verdict

(** Per-key linearizability of the completed request history (one {!Lin}
    register per key; unapplied requests took no observable effect, so
    excluding them is sound). *)
val kv_linearizable : Mm_kv.Kv.outcome -> verdict

(** Every request completed within the step budget.  Only sound on
    fair, crash-free, nemesis-free trials. *)
val kv_complete : Mm_kv.Kv.outcome -> verdict

(** Graceful degradation under a healed adversary: every request that
    arrived before [heal_by] completes by [heal_by + settle].  Only
    sound on fair, crash-free trials. *)
val kv_recovers : heal_by:int -> settle:int -> Mm_kv.Kv.outcome -> verdict

(** Durability across crash-recovery: every acknowledged (completed) put
    appears in the union of its shard replicas' final apply logs.  An
    acked-but-lost put indicts the recovery path — registers themselves
    survive restarts by the m&m model (§3). *)
val kv_durable : Mm_kv.Kv.outcome -> verdict
