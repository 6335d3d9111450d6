(** The scenario registry: the single source of truth for which
    checkers exist.  The CLI derives its [mm check] target enum from
    {!all}, the smoke aliases sweep one trial of every entry, and
    the determinism tests sweep every entry — adding a scenario here is
    all it takes to surface it everywhere.

    This is a separate module (rather than living in {!Scenario}) on
    purpose: the scenario implementations depend on {!Scenario}'s
    types, so the list of implementations must sit above them in the
    module graph. *)

(** Every registered scenario, in display order. *)
val all : Scenario.t list

(** The registered names, in the same order as {!all}. *)
val names : string list

(** Look a scenario up by its [name]. *)
val find : string -> Scenario.t option
