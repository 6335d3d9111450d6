(** Wait-free randomized consensus from read/write registers.

    This is the consensus-object implementation the HBO algorithm plugs
    in for RVals[q, k] and PVals[q, k] (paper §4.1 cites [10, 12] — the
    Aspnes–Herlihy line of register-based randomized consensus).  The
    construction is the classic round structure:

      round r: adopt-commit AC_r, then a local-coin conciliator

    - safety (agreement + validity) holds in every run, by adopt-commit
      coherence plus a write-once decision register per participant;
    - termination holds with probability 1 against the oblivious
      adversaries the simulator provides (local coins do not guarantee
      polynomial termination against a content-adaptive strong adversary;
      the paper's references use a weak shared coin for that — the
      interface is identical, so the substitution preserves HBO's
      behaviour; see DESIGN.md).

    Registers are hosted at the object's owner, so in HBO an object for
    process q lives in q's memory and is reachable by exactly
    {q} ∪ N(q), matching Figure 2's access annotation. *)

type 'a t

(** [create store ~name ~owner ~participants] allocates the decision
    registers now and the per-round adopt-commit objects lazily (the
    paper's unbounded object arrays). *)
val create :
  Mm_mem.Mem.store ->
  name:string ->
  owner:Mm_core.Id.t ->
  participants:Mm_core.Id.t list ->
  'a t

(** [create_in g ~name] is {!create} over the validated sharing set [g]:
    hosted at its owner, the participants are its members.  Every
    register of the object, its per-round adopt-commit objects' included,
    is allocated from [g], so materializing a round costs its register
    records and no sharing-set validation. *)
val create_in : Mm_mem.Mem.group -> name:string -> 'a t

val participants : 'a t -> Mm_core.Id.t list

(** [propose t v] runs consensus for the calling process and returns the
    decided value.  Must be called from process context by a
    participant. *)
val propose : 'a t -> 'a -> 'a
