(** Wait-free adopt-commit objects from atomic registers.

    An adopt-commit object is the safety half of randomized consensus:
    each participant proposes a value and gets back

    - [Commit v]: everyone else gets [Commit v] or [Adopt v];
    - [Adopt v]: a possibly-committed value that must be carried forward;
    - [Free v]: no evidence of agreement; the caller may randomize.

    Guarantees (proved in the module body):
    - Validity: the returned value was proposed by some participant.
    - Coherence: if someone commits v, every outcome carries v.
    - Convergence: if all participants propose v, all commit v.
    - Wait-freedom: a participant finishes in O(k) of its own steps
      regardless of others (k = number of participants).

    The implementation uses only the read/write registers of the m&m
    model — one proposal register and one flag register per participant,
    all hosted at the object's owner — so an object among {q} ∪ N(q) is
    exactly what the shared-memory domain of G_SM permits. *)

type 'a outcome =
  | Commit of 'a
  | Adopt of 'a
  | Free of 'a

(** Outcomes also expose the distinct proposals the caller observed, for
    use by a conciliator that randomizes among live candidates. *)
type 'a result = {
  outcome : 'a outcome;
  seen : 'a list;  (** distinct proposals read, caller's first *)
}

type 'a t

(** [create store ~name ~owner ~participants] allocates the registers at
    [owner], shared with the other participants.  The participant list
    must be non-empty, contain [owner], and be permitted by the store's
    shared-memory domain. *)
val create :
  Mm_mem.Mem.store ->
  name:string ->
  owner:Mm_core.Id.t ->
  participants:Mm_core.Id.t list ->
  'a t

(** [create_in g ~name] allocates the registers from the validated
    sharing set [g]: hosted at its owner, the participants are its
    members.  Objects materialized per round from one group cost their
    register records and no sharing-set validation. *)
val create_in : Mm_mem.Mem.group -> name:string -> 'a t

val participants : 'a t -> Mm_core.Id.t list

(** [run t v] executes the adopt-commit protocol for the calling process
    (which must be a participant; [Invalid_argument] otherwise).  Must be
    called from process context. *)
val run : 'a t -> 'a -> 'a result
