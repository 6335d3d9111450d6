(** Tables keyed by small non-negative ints.

    A growable array plus a presence bitmap: a lookup is a bounds test,
    a byte test and an array read — no hashing, no bucket chains, no
    polymorphic compare.  Space is O(largest key written), so this is
    for keys that are dense from 0: log slots, KV keys.  The per-step
    paths of the KV service and the replicated log keep all their
    slot- and key-indexed state here.  Nothing iterates a table, so no
    iteration order exists to depend on. *)

type 'a t

(** An empty table; nothing is allocated until the first {!replace}. *)
val create : unit -> 'a t

(** The value bound to [k].  Raises [Not_found] when [k] is unbound
    (every negative [k] is). *)
val find : 'a t -> int -> 'a

(** The value bound to [k], or [default] when [k] is unbound. *)
val find_or : 'a t -> int -> default:'a -> 'a

(** [replace t k v] binds [k] to [v], replacing any earlier binding.
    The backing arrays grow to at least double their length, and to at
    least 4 entries, when [k] is past them (a single-decree Paxos
    process's tables only ever hold slot 0).  Raises
    [Invalid_argument] on a negative [k]. *)
val replace : 'a t -> int -> 'a -> unit
