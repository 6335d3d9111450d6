(** The replicated log as a {!Scenario.S}: each trial draws a per-process
    command count, a crash plan of up to n-1 crashes and a scheduler,
    then monitors slot consistency (no slot decided two ways) and prefix
    agreement (contiguous logs, no divergent commits) on every trial,
    and full commitment — every correct process applies every correct
    command — on fair, crash-free trials.  Shrinking ({!Fault_plan.shrink})
    minimizes the crash set, then the PCT budget k, then the nemesis
    timeline and the restart windows when drawn. *)

include Scenario.S
