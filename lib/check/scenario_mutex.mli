(** Mutual exclusion as a {!Scenario.S}: each trial draws one of the
    three lock implementations (bakery, local-spin, m&m), an entry
    count, a critical-section length and a scheduler, then monitors
    mutual exclusion on every trial, the paper's §1 no-spin invariant
    on m&m trials (waiters sleep on their mailbox: zero unprompted
    register re-reads while blocked), and progress — every process
    completes all its entries — on fair trials.  Shrinking minimizes
    the entry count, then the PCT budget k and the nemesis timeline
    ({!Fault_plan.shrink}). *)

include Scenario.S
