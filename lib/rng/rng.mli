(** Deterministic, splittable pseudo-random number generator.

    The whole simulator is driven by explicit generator values so that every
    run is reproducible from a single integer seed.  The core is splitmix64:
    a draw is one add and a two-multiply mix on a 64-bit state held
    unboxed, so {!int}, {!bool} and {!int_in_range} allocate nothing
    ({!bits64} and {!float} allocate only their boxed result).  It
    supports cheap stream splitting: [split t] derives an independent
    generator, which we use to give the scheduler, each link, and each
    process its own stream so that adding a consumer does not perturb the
    draws seen by the others. *)

type t

(** [create seed] makes a fresh generator from an integer seed. *)
val create : int -> t

(** [copy t] duplicates the generator state. *)
val copy : t -> t

(** [jump t k] is a generator in the state [t] reaches after [k] more
    steps (one per {!bits64}, {!int}, {!bool}, {!float} or {!split}),
    computed in O(1) without making the draws; [t] is unchanged.  The
    result does not fingerprint.  Raises [Invalid_argument] unless
    [0 <= k < 2^32]. *)
val jump : t -> int -> t

(** [split t] advances [t] and returns a new generator whose stream is
    independent of the subsequent output of [t]. *)
val split : t -> t

(** [bits64 t] returns the next raw 64-bit output. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)].  Raises [Invalid_argument]
    if [bound <= 0]. *)
val int : t -> int -> int

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] (inclusive).
    Raises [Invalid_argument] if [hi < lo] or if the range holds more
    than [max_int] values (e.g. [~lo:0 ~hi:max_int]). *)
val int_in_range : t -> lo:int -> hi:int -> int

(** [pick t xs] is a uniformly random element of [xs].
    Raises [Invalid_argument] on the empty list. *)
val pick : t -> 'a list -> 'a

(** [shuffle t xs] is a uniformly random permutation of [xs]. *)
val shuffle : t -> 'a list -> 'a list

(** [shuffle_in_place t a] permutes the array uniformly at random. *)
val shuffle_in_place : t -> 'a array -> unit

(** {1 Draw-stream fingerprinting}

    A generator can digest every value it emits into a running FNV-1a
    fingerprint.  The digest covers the {e consumed} values — the
    bounded results of [int]/[bool]/[float]/[bits64] — not the raw mixer
    outputs, so two seeds whose draws land on the same decisions
    fingerprint alike.  Because a scenario's trial generation draws from
    its generator in a fixed order (the replay contract), the
    fingerprint of the generation stream identifies the generated trial:
    equal fingerprints mean byte-identical trials.  The sweep runner
    uses this to skip re-executing duplicate clean trials. *)

(** [fingerprint_start t] resets the digest and starts folding every
    subsequent draw (including [split]s) into it.  Fingerprinting is off
    by default and costs one branch per draw when off. *)
val fingerprint_start : t -> unit

(** [fingerprint t] is the current digest, a non-negative 63-bit int.
    Raises [Invalid_argument] if [fingerprint_start] was never called. *)
val fingerprint : t -> int
