(** A binary min-heap of packed int keys.

    Callers pack (priority, index) pairs into single non-negative ints
    (e.g. [due * slots + idx]), so the heap is one flat int array: no
    boxing, no comparator closures.  Duplicate keys are allowed; ties
    pop in an unspecified but deterministic order (callers that need a
    total order make the packed key itself unique). *)

type t

(** [create ()] is an empty heap.  [capacity] (default 64) sizes the
    initial backing array; it grows by doubling.  Raises
    [Invalid_argument] if [capacity < 1]. *)
val create : ?capacity:int -> unit -> t

val length : t -> int
val is_empty : t -> bool

(** Smallest key without removing it.  Raises [Invalid_argument] when
    empty. *)
val min_key : t -> int

val push : t -> int -> unit

(** Remove and return the smallest key.  Raises [Invalid_argument] when
    empty. *)
val pop : t -> int
