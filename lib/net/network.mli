(** The fully connected message-passing network of paper §3.

    Every ordered pair of distinct processes has a directed link.  All
    links satisfy Integrity (no spurious or duplicated messages — enforced
    by construction and double-checked by uid accounting).  The link kind
    selects the liveness property:

    - [Reliable]: No-loss — a message sent to a correct process is
      eventually delivered.
    - [Fair_lossy p]: each send is independently dropped with probability
      [p]; a message sent infinitely often is delivered infinitely often.

    Delivery timing is asynchronous: each accepted message gets a delay
    drawn from the delay policy, and an optional blocking predicate can
    hold traffic on chosen links for chosen periods (the adversary's
    message-delaying power).  Blocking never violates No-loss: held
    messages stay queued and are delivered once unblocked. *)

type kind =
  | Reliable
  | Fair_lossy of float  (** drop probability in [0, 1) *)

type delay =
  | Immediate              (** deliver at the next tick *)
  | Fixed of int           (** constant delay, >= 1 *)
  | Uniform of int * int   (** uniform in [lo, hi], 1 <= lo <= hi *)

type stats = {
  sent : int;       (** send calls accepted from processes *)
  delivered : int;  (** messages moved into destination mailboxes *)
  dropped : int;    (** fair-loss drops *)
  in_flight : int;  (** queued, not yet delivered *)
}

type t

(** [create ~rng ~n ~kind ()] builds the network for [n] processes.
    [delay] defaults to [Uniform (1, 4)].

    [index] selects how per-link state is stored: [`Dense] pre-allocates
    every directed pair (O(n²) at create, fastest lookup), [`Sparse]
    materializes a link on first use and recycles it once idle, so live
    storage is O(links in use) and creation is O(n).  The two indexings
    are behaviorally identical — same delivery order, same RNG draws —
    differing only in cost.  Defaults to [`Dense] for [n <= 64] and
    [`Sparse] above, unless {!set_default_index} overrides it.

    Delivery wake-ups are packed into int heap keys [due * n² + link];
    [create] computes the largest safe due step and any send or
    re-arm whose delivery step would overflow the packing raises a
    descriptive [Invalid_argument] instead of silently corrupting
    delivery order. *)
val create :
  rng:Mm_rng.Rng.t ->
  n:int ->
  kind:kind ->
  ?delay:delay ->
  ?index:[ `Dense | `Sparse ] ->
  unit ->
  t

(** Force every subsequent [create] without an explicit [index] into the
    given mode ([None] restores the size-based default).  For tests that
    run the same scenario under both indexings. *)
val set_default_index : [ `Dense | `Sparse ] option -> unit

val order : t -> int
val kind : t -> kind

(** [send t ~now ~src ~dst payload] puts a message on the link
    [src -> dst].  Self-sends are delivered directly into the sender's
    mailbox (local delivery — never dropped, no network delay). *)
val send : t -> now:int -> src:Mm_core.Id.t -> dst:Mm_core.Id.t -> Message.payload -> unit

(** [tick t ~now] delivers every queued message whose delivery time has
    arrived and whose link is not currently blocked.

    A link found held by a {!partition} is parked: it leaves the
    delivery schedule, and no tick looks at it again until {!heal}.
    The first tick after a heal re-arms every parked link at [now]
    before it delivers anything, so the link's due messages go out in
    that tick, ordered among the links due at [now] by link index.
    For a caller that ticks on every step at or past {!next_wake} (the
    engine does), that is the step and order a held link re-examined
    on every step would get.  A link held only by {!set_block_fn} is
    re-examined on every step, since that predicate depends on [now]. *)
val tick : t -> now:int -> unit

(** [next_wake t] is a step at or before the earliest pending delivery
    (or [max_int] when nothing is in flight): [tick t ~now] with
    [now < next_wake t] does nothing.  Parked links do not count, so
    while only partition-held traffic remains it is [max_int]; a
    {!heal} with parked links drops it to [min_int], so the next tick
    runs. *)
val next_wake : t -> int

(** [drain t p] empties and returns p's mailbox in delivery order as
    [(src, payload)] pairs. *)
val drain : t -> Mm_core.Id.t -> (Mm_core.Id.t * Message.payload) list

(** [peek_count t p] is the current mailbox size of [p] (for tests). *)
val peek_count : t -> Mm_core.Id.t -> int

(** [set_block_fn t f] installs an adversarial link filter: while
    [f ~now ~src ~dst] is true, messages on that link are held. *)
val set_block_fn :
  t -> (now:int -> src:Mm_core.Id.t -> dst:Mm_core.Id.t -> bool) -> unit

(** {2 Structured adversary}

    Declarative fault state layered on the per-link queues, used by
    [Mm_check.Nemesis].  None of these operations ever discards a queued
    message: holds only defer delivery (No-loss is preserved — held
    messages deliver after {!heal}), and degradation applies only to
    sends made while it is in force. *)

(** [partition t groups] holds every link whose endpoints lie in two
    {e different} listed groups.  Processes not listed in any group keep
    all their links; links within a group are unaffected.  Raises
    [Invalid_argument] if an id is out of range or listed twice.
    Cumulative with any holds already in place. *)
val partition : t -> Mm_core.Id.t list list -> unit

(** [heal t] lifts every hold installed by {!partition}.  Messages held
    while partitioned are delivered from the next tick on: that tick
    re-arms the parked links before it delivers anything (see {!tick}).
    A {!partition} between the heal and that tick holds them again. *)
val heal : t -> unit

(** [degrade t ~src ~dst ?drop ?extra_delay ()] degrades one directed
    link: each subsequent send is additionally dropped with probability
    [drop] (on top of the link kind; default 0), and accepted messages
    get [extra_delay] added to their drawn delay (default 0).  Raises
    [Invalid_argument] if [drop] is outside [0, 1) or [extra_delay] is
    negative. *)
val degrade :
  t ->
  src:Mm_core.Id.t ->
  dst:Mm_core.Id.t ->
  ?drop:float ->
  ?extra_delay:int ->
  unit ->
  unit

(** [restore t] clears all link degradation installed by {!degrade}. *)
val restore : t -> unit

(** Link-level events, observable by monitors (e.g. the engine's trace):
    a fair-loss drop at send time, or a message moved into its
    destination mailbox (including local self-delivery). *)
type event =
  | Drop of { src : Mm_core.Id.t; dst : Mm_core.Id.t }
  | Deliver of { src : Mm_core.Id.t; dst : Mm_core.Id.t }

(** [set_observer t f] installs a callback invoked on every link event.
    At most one observer; a second call replaces the first. *)
val set_observer : t -> (event -> unit) -> unit

(** [account t ~sent ~delivered] charges externally generated traffic
    to the stats, without touching any queue.  Used by the emulated
    register backend ({!Mm_mem.Mem.Backend.Emulated}) to make quorum
    rounds visible in the same counters as real protocol messages.
    Callers pass [sent = delivered] so [in_flight] stays consistent.
    Raises [Invalid_argument] on negative amounts. *)
val account : t -> sent:int -> delivered:int -> unit

val stats : t -> stats

(** [sent_count t] is [(stats t).sent] without building the record, for
    predicates read between every two steps. *)
val sent_count : t -> int

(** Stats over a window: [snapshot] then later [diff_since] gives the
    traffic in between (used for steady-state measurements in §5). *)
val snapshot : t -> stats
val diff_since : t -> stats -> stats
