(** The experiment suite: one table per paper figure / theorem, plus
    ablations.  See DESIGN.md for the experiment index and EXPERIMENTS.md
    for recorded results.

    Every experiment takes a [scale]: [`Quick] shrinks sizes and seed
    counts for tests, [`Full] is what `mm experiment` runs. *)

type scale =
  [ `Quick
  | `Full
  ]

(** E1 — Fig. 1 / §3: shared-memory domains derived from G_SM, including
    the paper's 5-process example. *)
val e1_domains : scale -> Table.t

(** E2 — Fig. 2, Thms 4.1/4.2: HBO vs Ben-Or vs pure shared memory on
    crash-free runs; correctness flags and costs. *)
val e2_consensus_cost : scale -> Table.t

(** E3 — Thm 4.3: fault tolerance as a function of the shared-memory
    graph's vertex expansion, predicted vs measured. *)
val e3_tolerance_vs_expansion : scale -> Table.t

(** E4 — Thm 4.4: SM-cuts make consensus impossible; partitioned runs on
    barbell graphs block while the same adversary is harmless on K_n. *)
val e4_impossibility : scale -> Table.t

(** E5 — Fig. 3+4 / Thm 5.1: reliable-links leader election; convergence
    and silent steady state. *)
val e5_leader_reliable : scale -> Table.t

(** E6 — Fig. 3+5 / Thm 5.2: fair-lossy leader election under increasing
    drop rates. *)
val e6_leader_lossy : scale -> Table.t

(** E7 — §5.3: locality of steady-state register accesses. *)
val e7_locality : scale -> Table.t

(** E8 — §5 + Thms 5.3/5.4: synchrony robustness — m&m Ω vs
    message-passing heartbeat Ω under growing link-delay variance; plus
    the leader-keeps-writing lower-bound witness. *)
val e8_synchrony : scale -> Table.t

(** E9 — §1: mutual exclusion; spinning reads vs wake-up messages. *)
val e9_mutex : scale -> Table.t

(** E10 — [11] equivalence: ABD register emulation vs a native m&m
    register under replica crashes. *)
val e10_abd_vs_native : scale -> Table.t

(** E11 — scalability: constant-degree explicit expanders
    (Margulis–Gabber–Galil) keep a constant *fraction* of tolerable
    crashes as n grows — the paper's motivation for limiting the degree
    of G_SM while scaling the system. *)
val e11_scalability : scale -> Table.t

(** E12 — the consensus design space in one table: Ben-Or (MP-only),
    HBO on an expander, Ω-driven shared-memory Paxos, and the pure-SM
    randomized object, all hit with the same beyond-majority crash
    pattern. *)
val e12_consensus_families : scale -> Table.t

(** E13 — the replicated log: multi-decree consensus (SMR) composed from
    per-slot register ballots, the register-heartbeat Ω and message-based
    command forwarding / apply notifications. *)
val e13_replicated_log : scale -> Table.t

(** E14 — §6 future work, "failures of the shared memory": wedge the
    elected leader's host registers read-only (process still running) and
    see which notification mechanism recovers.  Finding: the Fig. 4
    message mechanism does; the Fig. 5 register mechanism leaves the old
    leader electing itself forever. *)
val e14_memory_failure : scale -> Table.t

(** E15 — the Thm 4.3 threshold at scale: bisect the empirical crash
    tolerance of HBO on ring/hypercube/Margulis (n up to ~1000 at
    [`Full]) using unanimous-input probes against BFS-prefix certificate
    crash sets, and compare with (1 - 1/(2(1+h)))·n evaluated at the
    certificate expansion of the binding survivor count. *)
val e15_threshold_sweep : scale -> Table.t

(** A1 — ablation: HBO with register-based vs trusted consensus objects. *)
val a1_object_impl : scale -> Table.t

(** A2 — ablation: scheduler policy effect on HBO round counts. *)
val a2_scheduler : scale -> Table.t

(** A3 — ablation: exact vs sampled vs spectral expansion estimates. *)
val a3_expansion_estimators : scale -> Table.t

(** All experiments in order, with their ids. *)
val all : (string * (scale -> Table.t)) list

(** Look an experiment up by id (case-insensitive). *)
val find : string -> (scale -> Table.t) option
