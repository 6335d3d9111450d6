(** The sharded KV service as a {!Scenario.S}: each trial draws a shard
    count, an open-loop client population (Zipf keys, Poisson arrivals)
    from a single drawn workload seed, a crash plan and a scheduler,
    then monitors per-shard slot consistency and per-key linearizability
    on every trial, completion on fair fault-free trials, and post-heal
    recovery on fair crash-free nemesis trials.  Shrinking minimizes the
    op count first (fewer ops are a prefix of the same workload), then
    the fault plan ({!Fault_plan.shrink}): the crash set, the PCT budget
    k, the nemesis timeline and the restart windows. *)

include Scenario.S
