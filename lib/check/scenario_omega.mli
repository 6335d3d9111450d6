(** Ω leader election as a {!Scenario.S}: each trial draws a crash plan
    (never crashing the designated timely process 0, which §5 requires
    to stay alive) landing within the first [crash_window] steps
    (default 20 000, or the whole warmup when that is shorter), a
    per-trial drop probability below the configured max (lossy variant
    only) and an engine seed, and monitors Theorem 5.1/5.2 stability
    (one correct leader, stable before the window opened) plus
    steady-state silence.  Silence is only asserted on trials without
    crashes or restarts: a crashed process can leave a notification
    eternally unacknowledged, which the lossy mechanism legitimately
    retransmits forever.

    Ω stabilizes {e eventually}, with no bound on when, so a trial is
    judged on a window in which Ω has held, not at a fixed step
    ({!Mm_election.Omega.stop_rule}).  The window opens once the trial's
    last scheduled fault has passed (the latest crash step, nemesis heal
    or restart-window end) and restarts after every leader-output change
    at a correct process and, on silence-monitored trials, after every
    send not charged to emulated register rounds.  The trial ends once
    the window has held [window] steps (default 10 000), or at the cap of
    [warmup + window] steps (default 70 000): a trial that reaches the
    cap is judged on its last [window] steps, so leadership still
    changing there fails [omega-stable].  Shrinking
    ({!Fault_plan.shrink}) minimizes the crash set, then the nemesis
    timeline and the restart windows when drawn. *)

include Scenario.S with type outcome = Mm_election.Omega.outcome
