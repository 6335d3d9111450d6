(** The shared memory of an m&m system: atomic registers under a
    shared-memory domain.

    A store enforces the domain discipline of paper §3: allocating a
    register shared among a set of processes is only permitted when some
    S ∈ S contains that set, and every access is checked against the
    register's member set ([Access_violation] otherwise).  Registers are
    atomic — in the simulator each read or write is one indivisible
    scheduler step.

    How a register is {e realised} is the store's backend:

    - {!Backend.Native} — the paper's base model: RDMA-registered memory
      on the owner's host.  Registers survive process crashes, accesses
      move no network traffic, and §5.3 locality applies (the owner's
      accesses are counted local, everyone else's remote).
    - {!Backend.Emulated} — a pure message-passing system pretending to
      have registers: each read or write is a two-phase ABD quorum round
      over the network (cf. lib/abd, and arXiv 1906.00298 /
      arXiv 2012.10846 on register emulations in m&m systems).  Register
      ops move the network counters, every access counts remote (no
      locality to exploit), crash tolerance drops to a minority: once a
      majority of hosts have crashed an op cannot assemble its quorum
      and raises {!Unavailable} — wait-freedom is lost exactly at the
      papers' resilience bound.

    Both backends present the same register API, so algorithms written
    against it run unchanged under either — that contrast (hybrid m&m
    vs pure message passing) is the point of the interface. *)

module Backend : sig
  type t =
    | Native    (** crash-surviving registers on the owner's host (§3) *)
    | Emulated  (** ABD quorum emulation over the network *)

  (** All backends with their CLI names — the single source of truth
      for [mm --backend], the smoke aliases and test matrices. *)
  val all : (string * t) list

  val name : t -> string

  (** Inverse of {!name}.  Raises [Invalid_argument] on unknown names. *)
  val of_string : string -> t

  (** Small stable integer distinguishing backends, for salting config
      fingerprints so sweep dedup never conflates them. *)
  val tag : t -> int

  val pp : Format.formatter -> t -> unit
end

type store

(** An atomic read/write register holding values of type ['a]. *)
type 'a reg

exception Access_violation of { reg : string; by : Mm_core.Id.t }

(** An emulated-register op could not assemble a majority quorum
    ([2 * live <= order]).  Never raised by the [Native] backend.  The
    engine turns this into a retry — the op blocks rather than fails. *)
exception
  Unavailable of {
    reg : string;
    by : Mm_core.Id.t;
    live : int;
    order : int;
  }

(** Per-process access counters (local = by the register's owner). *)
type counters = {
  reads_local : int;
  reads_remote : int;
  writes_local : int;
  writes_remote : int;
}

val zero_counters : counters
val add_counters : counters -> counters -> counters
val sub_counters : counters -> counters -> counters
val total_ops : counters -> int
val pp_counters : Format.formatter -> counters -> unit

(** [create domain] makes an empty store governed by [domain], realised
    by [backend] (default [Native]). *)
val create : ?backend:Backend.t -> Mm_core.Domain.t -> store

(** The backend this store realises registers with. *)
val backend : store -> Backend.t

(** [set_transport store f] installs the hook the [Emulated] backend
    charges its quorum traffic to ([f ~sent ~delivered], once per op
    with the round's message count).  The engine points this at its
    network's stats so emulated register ops are visible exactly where
    real protocol messages are.  A fresh store's hook is a no-op. *)
val set_transport : store -> (sent:int -> delivered:int -> unit) -> unit

(** [note_crash store p] records that host [p] crashed, shrinking the
    replica quorum the [Emulated] backend can assemble.  Idempotent.
    Under [Native] this only maintains bookkeeping — native registers
    survive crashes by assumption (§3). *)
val note_crash : store -> Mm_core.Id.t -> unit

(** [note_restart store p] records that host [p] came back after a
    crash, restoring it to the replica quorum.  Idempotent (a no-op
    unless [p] is currently noted crashed).  Register values need no
    repair: native registers survive their owner's crash (§3), and the
    emulated backend kept every value at the surviving majority.  A
    prior {!fail_host_memory} is NOT healed by restarting. *)
val note_restart : store -> Mm_core.Id.t -> unit

(** Memory failures (paper §6 future work, citing Afek et al. and
    Jayanti-Chandra-Toueg faulty shared objects): [fail_host_memory
    store p] makes every register hosted at [p] *omission-faulty* from
    now on.  Under [Native], writes (by anyone, to registers owned by
    [p]) are silently discarded while reads keep returning the last
    value written before the failure.  Under [Emulated], [p] is one
    replica among [n], so the failure is masked until a majority of
    hosts are crashed or memory-failed — only then do writes drop.
    Idempotent. *)
val fail_host_memory : store -> Mm_core.Id.t -> unit

(** Has this host's memory been failed? *)
val host_memory_failed : store -> Mm_core.Id.t -> bool

(** Writes dropped because the target register's host memory had failed
    (Native) or a majority of replicas were unhealthy (Emulated). *)
val dropped_writes : store -> int

(** Ops the [Emulated] backend refused for lack of a live majority
    (each retry counts).  Always 0 under [Native]: the count going
    positive is the observable loss of wait-freedom. *)
val blocked_ops : store -> int

(** Total messages charged by the [Emulated] backend (0 under Native). *)
val emulated_msgs : store -> int

(** Smallest live-host count observed by a completed emulated round
    (order of the store when no round has run) — witnesses how close
    the run came to the resilience bound. *)
val emulated_min_live : store -> int

(** Hosts not yet crashed. *)
val live_hosts : store -> int

val domain : store -> Mm_core.Domain.t

(** A validated sharing set: an owner and the processes that may access
    the registers it hosts.  Algorithms that materialize registers per
    round or per slot (HBO's RVals/PVals objects, the replicated log's
    slot blocks) build one group per sharing set up front and allocate
    every register from it.

    Contract:
    - {!group} sorts and deduplicates [owner :: shared_with] and checks
      it against the store's domain once; {!alloc_in} checks nothing.
      A strictly ascending [shared_with] (what a filter over
      {!Mm_core.Id.all} gives) costs one pass: the owner is merged in
      and the list above it is shared.  Any other list — unsorted,
      descending, with repeats or containing the owner — is sorted
      first, with the same result.
    - Registers allocated from one group share its owner, its member
      array and its member list (immutable); each keeps its own value
      and access memo.  They behave exactly like {!alloc}'s: the same
      {!owner}, {!members}, access checks, [Access_violation] and
      accounting, and {!reg_count} counts each one.
    - A group belongs to the store it was built from. *)
type group

(** [group store ~owner ~shared_with] validates the sharing set
    [owner :: shared_with].  Raises [Invalid_argument] when the domain
    forbids it. *)
val group :
  store -> owner:Mm_core.Id.t -> shared_with:Mm_core.Id.t list -> group

(** [peer_groups store pids] is one group per member of [pids]: group
    [i] is owned by [pids.(i)] and shared with all of [pids] — a
    register per process that its peers read (Paxos' blocks, Ω's STATE,
    the ALIVE heartbeats, a log's slots).  Every owner has the same
    sharing set, so it is validated once.  Raises [Invalid_argument]
    when the domain forbids it. *)
val peer_groups : store -> Mm_core.Id.t array -> group array

(** [g]'s members: its owner and sharing set, sorted, without repeats. *)
val group_members : group -> Mm_core.Id.t list

(** [alloc_in g ~name init] allocates a register hosted at [g]'s owner
    and accessible by [g]'s members.  Costs one record; never raises. *)
val alloc_in : group -> name:string -> 'a -> 'a reg

(** [alloc store ~name ~owner ~shared_with init] is
    [alloc_in (group store ~owner ~shared_with) ~name init]: it allocates
    a register hosted at [owner] and accessible by [owner :: shared_with].
    Raises [Invalid_argument] naming the register when the domain forbids
    that sharing set. *)
val alloc :
  store ->
  name:string ->
  owner:Mm_core.Id.t ->
  shared_with:Mm_core.Id.t list ->
  'a ->
  'a reg

(** [read reg ~by] returns the current value.
    Raises [Access_violation] when [by] is not a member, and
    [Unavailable] when the backend is [Emulated] and a majority of
    hosts have crashed. *)
val read : 'a reg -> by:Mm_core.Id.t -> 'a

(** [write reg ~by v] stores [v].
    Raises [Access_violation] when [by] is not a member, and
    [Unavailable] when the backend is [Emulated] and a majority of
    hosts have crashed. *)
val write : 'a reg -> by:Mm_core.Id.t -> 'a -> unit

(** [peek reg] reads without access checks or accounting — for test
    assertions and trace printers only, never from algorithm code. *)
val peek : 'a reg -> 'a

val name : 'a reg -> string
val owner : 'a reg -> Mm_core.Id.t
val members : 'a reg -> Mm_core.Id.t list

(** Number of registers allocated so far. *)
val reg_count : store -> int

(** [counters_of store p] is the access counters of process [p]. *)
val counters_of : store -> Mm_core.Id.t -> counters

(** Sum of all processes' counters. *)
val total_counters : store -> counters

(** Window accounting for the §5 steady-state measurements: [snapshot]
    then later [diff_since] gives per-process activity in between. *)
val snapshot : store -> counters array
val diff_since : store -> counters array -> counters array
