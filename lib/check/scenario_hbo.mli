(** HBO consensus as a {!Scenario.S}: each trial draws random binary
    inputs, a crash plan within the Theorem 4.3 envelope (by default)
    landing within the first [crash_window] steps, a scheduler (fair
    random walk or a weighted PCT adversary with k in 1..4) and an
    engine seed, then monitors agreement and validity (Thm 4.1) on
    every trial and termination (Thms 4.2/4.3) on random-walk trials:
    PCT schedules are too skewed to give every process enough steps
    inside the budget, so liveness is asserted only under the fair
    walk.

    With [expect_stall] it instead realizes the Theorem 4.4 scenario:
    it finds a minimal SM-cut (B, S, T) of the graph (raising
    [Invalid_argument] if none exists), crashes B at step 0, delays all
    S-T traffic forever, and monitors that consensus does {e not}
    terminate — a trial fails when every correct process decides.

    Shrinking ({!Fault_plan.shrink}) minimizes the crash set, then the
    PCT budget k, then the nemesis timeline when one was drawn
    ([--nemesis]; HBO draws no restart windows), re-running the trial
    seed with overridden faults each time and keeping a reduction only
    if the {e same} property still fails.  The Thm 4.4 scenario is fixed
    by construction and not shrunk. *)

include Scenario.S
