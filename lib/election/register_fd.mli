(** A register-heartbeat failure detector (Ω-style leader hint).

    Each process periodically writes its own step counter into an ALIVE
    register and probes one peer's register per call, suspecting peers
    whose counter stalls past an adaptive timeout measured in the
    *caller's own* steps — the same no-link-timeliness monitoring core as
    Figure 3, packaged as a reusable component for algorithms that need a
    leader hint (Paxos, the replicated log).

    Purely shared-memory: no messages, wait-free, and the registers
    survive crashes.  Under the simulator's schedulers the output
    stabilizes on the smallest correct member.  Paxos, the replicated
    log and every KV shard use this one layout. *)

type t

(** [registers store ~pids ~prefix] allocates one group's ALIVE array:
    register [i] is named [prefix ^ "ALIVE\[i\]"], owned by [pids.(i)]
    and shared with the rest of [pids] — the layout
    [Mm_consensus.Paxos.Slots.create] uses for its slot registers.
    Detector indices below are member indices into [pids]. *)
val registers :
  Mm_mem.Mem.store ->
  pids:Mm_core.Id.t array ->
  prefix:string ->
  int Mm_mem.Mem.reg array

(** [create alive ~me] builds the local detector state of member [me]. *)
val create : int Mm_mem.Mem.reg array -> me:int -> t

(** One monitoring step: refresh own heartbeat, probe the next peer.
    Costs 1–2 register operations.  Must run in process context. *)
val step : t -> unit

(** Current leader hint: the smallest unsuspected member index. *)
val leader : t -> int

(** Does the caller currently believe it leads? *)
val am_leader : t -> bool

(** Currently suspected member indices (for tests). *)
val suspects : t -> int list
