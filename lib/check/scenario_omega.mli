(** Ω leader election as a {!Scenario.S}: each trial draws a crash plan
    (never crashing the designated timely process 0, which §5 requires
    to stay alive) landing within the first [crash_window] steps, a
    per-trial drop probability below the configured max (lossy variant
    only) and an engine seed, runs warmup + window steps and monitors
    Theorem 5.1/5.2 stability (one correct leader, stable before the
    window opened) plus steady-state silence.  Silence is only asserted
    on crash-free trials: a crashed process can leave a notification
    eternally unacknowledged, which the lossy mechanism legitimately
    retransmits forever.  Shrinking ({!Fault_plan.shrink}) minimizes the
    crash set, then the nemesis timeline and the restart windows when
    drawn. *)

include Scenario.S
