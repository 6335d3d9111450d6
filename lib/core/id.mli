(** Process identifiers.

    Processes are Π = {0, ..., n-1} as in paper §3.  Ids are plain
    integers wrapped behind this interface so that the rest of the code
    cannot confuse them with counts or indices by accident in signatures. *)

type t = private int

(** [of_int i] wraps a non-negative integer id.
    Raises [Invalid_argument] on negatives. *)
val of_int : int -> t

(* [to_int], [compare] and [equal] are compiler primitives, not [val]s.
   dune's default (dev) profile compiles every library with [-opaque],
   which hides each [.ml]'s code from the modules that use it: a [val]
   would cost a real cross-module call at every use, on the engine's
   per-step paths too.  A primitive declared here travels in the [.cmi],
   so it survives [-opaque]: [to_int] compiles to nothing and [equal] /
   [compare] to a single integer comparison. *)

(** [to_int id] unwraps. *)
external to_int : t -> int = "%identity"

(** [all n] is [0; ...; n-1]. *)
val all : int -> t list

external compare : t -> t -> int = "%compare"
external equal : t -> t -> bool = "%equal"
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
