(** Ω-driven shared-memory Paxos as a {!Scenario.S}: each trial draws
    distinct-ish integer inputs, a leader oracle (heartbeat Ω, a static
    leader, or the adversarial everyone-leads Anarchy), a crash plan of
    up to n-1 crashes and a scheduler.  Agreement and validity are
    asserted on every trial — ballots must interlock no matter how many
    processes believe they lead; termination only on fair, crash-free
    trials with a stabilizing oracle.  Shrinking ({!Fault_plan.shrink})
    minimizes the crash set, then the PCT budget k, then the nemesis
    timeline and the restart windows when drawn. *)

include Scenario.S
