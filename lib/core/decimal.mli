(** Decimal rendering of ints for register names.

    [string_of_int] goes through the C [format_int] path (~150 ns on a
    2-vCPU x86 host).  Register names are built on every trial's setup
    and on every per-round and per-slot register an algorithm
    materializes, so they use {!of_int} instead. *)

(** [of_int i] is [string_of_int i], byte for byte.  For [0 <= i < 1024]
    it returns a shared string and allocates nothing; other
    non-negative ints are rendered in OCaml; negatives fall back to
    [string_of_int]. *)
val of_int : int -> string
