(** A sharded replicated key-value service on the replicated log.

    Keys are partitioned across [shards] by [key mod shards]; each shard
    is one independent {!Mm_smr.Replicated_log.Slots} group of
    [replicas] processes (shard [s]'s replicas are engine pids
    [s * replicas .. s * replicas + replicas - 1]), led by a
    register-heartbeat failure detector.  An open-loop client population
    ({!Workload}) injects requests at a drawn ingress replica of the
    owning shard; the ingress replica shepherds each request until it
    completes, re-forwarding it to its current leader hint over
    messages (the hop partitions and freezes actually delay — the
    shard's registers survive both).

    Writes always go through the log: the leader decides the request id
    into the next free slot with a Disk-Paxos ballot, every replica
    applies the log in slot order, and at-least-once forwarding is
    deduplicated at apply time (first occurrence mutates the state).

    Reads follow the paper's §5.3 locality rule when [local_reads] is
    on: the leader catches up by reading decision registers until it
    sees an undecided slot, then answers every pending read from its
    applied state within that same step — zero message round-trips and
    trivially linearizable, since no decision can land between the
    [None] read and the answers.  With [local_reads] off, reads are
    decided through the log like writes (the measurable baseline).

    Per-request latency is recorded in engine ticks — completion step
    minus arrival step, at the first apply (or local serve) anywhere —
    into per-shard get/put {!Histogram}s. *)

module W := Workload

(** A request plus its mutable measurement slots.  [run] builds a fresh
    array per execution, so a workload (and hence a checker trial) can
    be re-executed without carrying state over. *)
type op_record = {
  req : W.request;
  mutable completion : int; (** engine step; -1 while incomplete *)
  mutable result : int;     (** gets: value returned (0 = never written) *)
  mutable expired : bool;
      (** the client's per-op deadline elapsed before completion; the
          request may still take effect later (at-least-once), and its
          completion is then recorded, but its latency is kept out of
          the histograms *)
}

(** The client-visible latency: [None] while incomplete {e or} once
    expired — a late completion after the deadline is not a latency the
    client ever observed (it matches what the histograms record). *)
val latency : op_record -> int option

type outcome = {
  spec : W.spec;
  shards : int;
  replicas : int;
  local_reads : bool;
  ops : op_record array;     (** workload order *)
  completed : int;
  timeouts : int;
      (** requests whose deadline elapsed before completion (0 without
          [op_timeout]) *)
  op_timeout : int option;   (** the deadline the run was driven with *)
  get_hist : Histogram.t array; (** per shard, completed gets *)
  put_hist : Histogram.t array; (** per shard, completed puts *)
  logs : (int * int) list array;
      (** per engine pid: (slot, request id) applied, in apply order;
          slot numbering is per shard *)
  consistent : bool;
      (** within every shard, no slot maps to two different requests *)
  duplicate_applies : int;
  run : Mm_sim.Engine.summary;  (** steps, costs, crashes, trace *)
  total_steps : int;  (** = [run.steps] *)
  net : Mm_net.Network.stats;  (** = [run.net] *)
  mem_total : Mm_mem.Mem.counters;  (** = [run.mem] *)
  mem_blocked : int;
      (** = [run.blocked].  These four mirrors of [run] are kept only for
          the benchmark program in [perfbench/], which reads them; read
          [run] everywhere else. *)
}

(** [run ~shards ~replicas ~workload ()] drives the workload to
    completion (or [max_steps]).  [crashes] are engine pids; the [until]
    predicate only waits for requests whose ingress replica never
    crashes.  Raises [Invalid_argument] on [shards < 1] or
    [replicas < 1].

    Robustness triple of the client layer:
    - [op_timeout] gives every request a per-op deadline (engine steps
      from arrival); overdue requests are marked {!op_record.expired},
      counted in {!outcome.timeouts}, and no longer waited for — the
      [until] predicate then covers {e all} requests, including those
      whose ingress replica crashed.  Raises [Invalid_argument] when
      [< 1].
    - shepherds re-forward each open request on its own bounded
      exponential-backoff clock (base 16, cap 512 steps) with seeded
      jitter drawn from a stream split off the engine seed —
      deterministic, and desynchronized across replicas.
    - delivery stays at-least-once against the apply-time dedup, so
      retries and failovers never double-apply.

    Replicas are spawned with a recovery closure: a nemesis [Restart]
    reboots one into a fresh fiber that replays the decided prefix from
    the crash-surviving slot registers and re-claims every open request
    it was shepherding (ingress restarts from 0) — shard-leader failover
    with client retry, end to end. *)
val run :
  ?seed:int ->
  ?max_steps:int ->
  ?trace_capacity:int ->
  ?crashes:(int * int) list ->
  ?prepare:(Mm_sim.Engine.t -> unit) ->
  ?sched:Mm_sim.Sched.t ->
  ?backend:Mm_mem.Mem.Backend.t ->
  ?local_reads:bool ->
  ?op_timeout:int ->
  shards:int ->
  replicas:int ->
  workload:W.t ->
  unit ->
  outcome

(** Merged get+put histogram of completed requests with arrival in
    [\[from, until)] — optionally one shard, one op kind.  The tests
    use this to window latency around a nemesis stage. *)
val window_hist :
  outcome ->
  ?shard:int ->
  ?op:[ `Get | `Put | `All ] ->
  from:int ->
  until:int ->
  unit ->
  Histogram.t

(** Completed requests of one shard per 1000 steps of the run. *)
val shard_throughput : outcome -> shard:int -> float
