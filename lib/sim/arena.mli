(** A placeholder kept only for the benchmark program in [perfbench/],
    which still creates one and passes it to
    [Mm_check.Scenario.S.execute ~arena].  It carries no state: every
    trial builds a fresh engine with {!Engine.create}.  The next change
    to the benchmark drops both uses and this module with them. *)

type t

val create : unit -> t
