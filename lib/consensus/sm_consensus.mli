(** Pure shared-memory consensus — the other endpoint of the spectrum.

    When G_SM is complete, the m&m model contains the full shared-memory
    model and wait-free randomized consensus tolerates n-1 crashes
    (paper §4, citing Abrahamson / Aspnes–Herlihy).  This module runs a
    single {!Rand_consensus} object shared by all processes: no messages
    are ever sent, and any lone survivor still decides. *)

type outcome = {
  decisions : int option array;  (** checked by {!Decisions} *)
  run : Mm_sim.Engine.summary;   (** [run.net.sent] is always 0 *)
}

val run :
  ?seed:int ->
  ?max_steps:int ->
  ?crashes:(int * int) list ->
  ?sched:Mm_sim.Sched.t ->
  n:int ->
  inputs:int array ->
  unit ->
  outcome
