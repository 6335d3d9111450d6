(** The ABD register as a {!Scenario.S}: each trial draws per-process
    operation scripts (writes of globally distinct values, as the
    {!Lin} zone test needs, reads and pauses; at most [max_ops] per
    process, default 4) and a delay policy, then monitors
    completion, timestamp-level atomicity and value-level
    linearizability.  No crashes are injected: a crashed writer's
    pending write may legitimately be adopted by readers, and pending
    operations carry no recorded response to linearize.  Only a nemesis
    timeline, when drawn, is shrunk. *)

include Scenario.S
