(** The Hybrid Ben-Or (HBO) consensus algorithm — paper Figure 2.

    Each process p runs Ben-Or's randomized binary consensus, but every
    message it sends carries not only its own value: for each process q
    in p's closed G_SM-neighborhood, p first agrees with q's other
    neighbors — through a wait-free shared-memory consensus object
    RVals[q, k] / PVals[q, k] — on what q's message for that phase and
    round should be, and sends the whole array of tuples.  A message
    therefore *represents* p's entire neighborhood, and "wait for n - f
    messages" becomes "wait for messages representing a majority".

    Properties (Theorems 4.1–4.3): Validity and Uniform Agreement always;
    Termination with probability 1 whenever the correct processes plus
    their boundary form a majority — i.e. up to
    f < (1 - 1/(2(1+h(G_SM)))) · n crashes.

    Running HBO on the edgeless graph with the [Direct] object
    implementation *is* plain Ben-Or (each neighborhood is a singleton
    and the objects degenerate to the identity), which is how the
    message-passing baseline of the experiments is obtained — see
    {!Ben_or}. *)

(** How the shared-memory consensus objects are realized:

    - [Registers]: the real thing — wait-free randomized consensus from
      read/write registers ({!Rand_consensus}), as the paper prescribes.
    - [Trusted]: a hardware-style one-step first-proposal-wins object
      (uses the simulator's atomic primitive); cheaper, used to isolate
      HBO's own behaviour from consensus-object cost in ablations.
    - [Direct]: the identity — no shared memory at all.  Only legal when
      every neighborhood is a singleton (edgeless graph); this is pure
      Ben-Or. *)
type impl =
  | Registers
  | Trusted
  | Direct

type outcome = {
  reason : Mm_sim.Engine.stop_reason;
  decisions : int option array;     (** per process; [None] = undecided *)
  decide_step : int option array;   (** global step of each decision *)
  decide_round : int option array;  (** Ben-Or round of each decision *)
  crashed : bool array;             (** which processes were crashed *)
  total_steps : int;
  net : Mm_net.Network.stats;
  mem_total : Mm_mem.Mem.counters;
  mem_blocked : int;  (** emulated register ops refused for lack of quorum *)
  registers : int;                  (** registers allocated *)
  coin_flips : int;
  trace : Mm_sim.Trace.event list;
      (** trailing engine trace (empty unless [trace_capacity] > 0) *)
}

(** [run ~graph ~inputs ()] simulates HBO on shared-memory graph [graph]
    with binary [inputs] (one per process, each 0 or 1).

    - [crashes] lists [(pid, step)] crash injections.
    - [partition], when given two process groups, makes the adversary
      delay every message between the groups forever (messages are held,
      not dropped — asynchrony, not loss).  Together with crashing an
      SM-cut's B set this realizes the Theorem 4.4 scenario.
    - [impl] defaults to [Registers].
    - [sched], [link], [delay], [seed] configure the engine (defaults:
      seeded random scheduler, reliable links, uniform 1–4 delay).
    - [max_steps] bounds the run (default 2_000_000).
    - [trace_capacity], when positive, records the last that-many engine
      events into [outcome.trace] (for {!Mm_check} counterexamples).

    The run stops as soon as every non-crashing process has decided, or
    at [max_steps] (undecided processes then show [None] — how the
    impossibility experiments observe non-termination). *)
val run :
  ?seed:int ->
  ?impl:impl ->
  ?max_steps:int ->
  ?trace_capacity:int ->
  ?crashes:(int * int) list ->
  ?partition:int list * int list ->
  ?prepare:(Mm_sim.Engine.t -> unit) ->
  ?sched:Mm_sim.Sched.t ->
  ?backend:Mm_mem.Mem.Backend.t ->
  ?link:Mm_net.Network.kind ->
  ?delay:Mm_net.Network.delay ->
  graph:Mm_graph.Graph.t ->
  inputs:int array ->
  unit ->
  outcome

(** Uniform Agreement: no two processes decided differently. *)
val agreement : outcome -> bool

(** Validity: every decision was some process's input. *)
val validity : inputs:int array -> outcome -> bool

(** Termination: every process that never crashed decided. *)
val all_correct_decided : outcome -> bool

(** Largest decision round among deciders, 0 when nobody decided. *)
val max_round : outcome -> int
