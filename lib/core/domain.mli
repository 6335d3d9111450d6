(** Shared-memory domains (paper §3).

    A domain S is a set of process subsets; for each S ∈ S the model
    permits registers shared among exactly the processes of S.  The
    *uniform* domain is derived from a shared-memory graph G_SM: its sets
    are the closed neighborhoods S_p = {p} ∪ neighbors(p).  The broader,
    arbitrary form is kept (as in the paper) for completeness. *)

type t

(** [of_sets n sets] builds an arbitrary domain over n processes.
    Each set must be non-empty with members in [\[0, n)];
    duplicates within a set are removed. *)
val of_sets : int -> int list list -> t

(** [uniform_of_graph g] is the uniform domain of shared-memory graph [g]:
    one set S_p per process p. *)
val uniform_of_graph : Mm_graph.Graph.t -> t

(** [full n] is the domain of the complete graph: one set containing
    everyone — the pure shared-memory model. *)
val full : int -> t

(** [isolated n] permits only singleton sharing — the pure
    message-passing model (each process can only "share" with itself). *)
val isolated : int -> t

(** Number of processes. *)
val order : t -> int

(** The member sets, each sorted, in construction order. *)
val sets : t -> Id.t list list

(** [can_share t ids] holds when some S ∈ S contains all of [ids]: a
    register shared among [ids] is permitted by the domain.

    Contract: [ids] is strictly ascending (sorted, without repeats) —
    {!Mm_mem.Mem} hands it a validated member list.  The check then
    runs on the list as given, with no sort or copy; on a list that
    breaks the contract the answer is unspecified. *)
val can_share : t -> Id.t list -> bool

(** [set_of t p] is the closed neighborhood S_p for a uniform domain —
    the processes allowed on a register hosted at [p].
    Raises [Not_found] when the domain was not built from a graph. *)
val set_of : t -> Id.t -> Id.t list

val pp : Format.formatter -> t -> unit
