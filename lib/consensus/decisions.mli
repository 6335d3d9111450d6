(** The consensus properties, written once over a run's per-process
    [decisions] ([None] = undecided) and its crash-plan victims
    ([crashed], see {!Mm_sim.Engine.crash_plan}).  Shared by {!Hbo},
    {!Paxos} and {!Sm_consensus}. *)

(** Uniform Agreement: no two processes decided differently. *)
val agreement : int option array -> bool

(** Validity: every decision was some process's input. *)
val validity : inputs:int array -> int option array -> bool

(** The pids, ascending, that never crash and are still undecided. *)
val undecided : crashed:bool array -> int option array -> int list

(** Termination: every process that never crashed decided.  Allocates
    nothing, so an [until] predicate may call it between steps. *)
val all_correct_decided : crashed:bool array -> int option array -> bool
