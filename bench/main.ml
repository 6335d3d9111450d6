(* Benchmark and experiment harness.

   Two parts:
   1. bechamel micro-benchmarks — one Test.make per experiment table,
      timing a scaled-down kernel of that experiment;
   2. the experiment tables themselves (E1-E14 + ablations A1-A3),
      regenerated at full scale and printed.

   Usage:  main.exe            micro-benches + all tables (full scale)
           main.exe --quick    micro-benches + all tables (quick scale)
           main.exe --no-bench tables only
           main.exe --json     micro-benches only, as a JSON array
           main.exe --json --smoke   same, with a tiny measurement quota
                               (harness validation only; see @bench-smoke)
           main.exe e3 e8      just those tables (full scale)            *)

(* Bound before the opens: Toolkit shadows [Monotonic_clock] with its
   MEASURE instance, and the derived rows below need the raw clock. *)
module Clock = Monotonic_clock

open Bechamel
open Toolkit

module B = Mm_graph.Builders
module E = Mm_graph.Expansion
module Cut = Mm_graph.Sm_cut
module Domain_ = Mm_core.Domain
module Hbo = Mm_consensus.Hbo
module Ben_or = Mm_consensus.Ben_or
module Omega = Mm_election.Omega
module Mp = Mm_election.Mp_omega
module Mutex = Mm_mutex.Mutex
module Abd = Mm_abd.Abd
module Sched = Mm_sim.Sched
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module Net = Mm_net.Network
module Id = Mm_core.Id
module Runner = Mm_check.Runner

type Mm_net.Message.payload += Bench_ping

let inputs n = Array.init n (fun i -> i mod 2)

(* Throughput kernels: raw simulator hot-path numbers that the perf
   trajectory tracks across PRs (see tools/bench_diff.ml).

   - engine/steps-per-sec: 8 ping-ponging processes, 20k engine steps
     per run; ns/run / 20_000 is the per-step cost.
   - net/tick-saturated: a saturated 8-process network, 2 sends per
     process per tick with spread-out delays, 500 ticks per run.
   - check/hbo-sweep-wallclock-*: one full hbo sweep (fixed trial
     budget) at jobs=1 vs jobs=4 — the ratio is the sweep speedup. *)

let engine_steps_kernel () =
  let n = 8 in
  let eng =
    Engine.create ~seed:11 ~domain:(Domain_.full n) ~link:Net.Reliable ~n ()
  in
  for pid = 0 to n - 1 do
    Engine.spawn eng (Id.of_int pid) (fun () ->
        let next = Id.of_int ((pid + 1) mod n) in
        let rec go () =
          Proc.send next Bench_ping;
          ignore (Proc.receive ());
          Proc.yield ();
          go ()
        in
        go ())
  done;
  ignore (Engine.run eng ~max_steps:20_000 ())

let net_tick_kernel () =
  let n = 8 in
  let rng = Mm_rng.Rng.create 5 in
  let net = Net.create ~rng ~n ~kind:Net.Reliable ~delay:(Net.Uniform (1, 16)) () in
  for now = 0 to 499 do
    for s = 0 to n - 1 do
      Net.send net ~now ~src:(Id.of_int s) ~dst:(Id.of_int ((s + 1) mod n))
        Bench_ping;
      Net.send net ~now ~src:(Id.of_int s) ~dst:(Id.of_int ((s + 3) mod n))
        Bench_ping
    done;
    Net.tick net ~now;
    ignore (Net.drain net (Id.of_int (now mod n)))
  done

let hbo_sweep_kernel jobs () =
  ignore
    (Runner.sweep
       (module Mm_check.Scenario_hbo)
       ~master_seed:7 ~budget:24 ~jobs
       ~params:
         {
           Mm_check.Scenario.default_params with
           graph = Some (B.complete 4);
           max_steps = Some 20_000;
         }
       ())

(* engine/big-n-steps-n{100,1000}: per-step cost at large n.  A fixed
   8-process ping-pong ring is embedded in an n-process engine whose
   remaining processes block on receive immediately, so the runnable
   set stays O(1) while n grows 10x.  With the incremental runnable
   set and due-heaps the 20k steps measured here are O(active) each;
   the perf gate is n1000 staying within 2x of n100 per run. *)
let big_n_steps_kernel n () =
  let active = 8 in
  let eng =
    Engine.create ~seed:11
      ~domain:(Domain_.uniform_of_graph (B.ring n))
      ~link:Net.Reliable ~n ()
  in
  for pid = 0 to n - 1 do
    Engine.spawn eng (Id.of_int pid) (fun () ->
        if pid < active then begin
          let next = Id.of_int ((pid + 1) mod active) in
          let rec go () =
            Proc.send next Bench_ping;
            ignore (Proc.receive ());
            Proc.yield ();
            go ()
          in
          go ()
        end
        else
          (* parked: one step to block, then off the runnable set *)
          ignore (Proc.receive ()))
  done;
  ignore (Engine.run eng ~max_steps:20_000 ())

(* net/sparse-create-n1000: construction plus first-contact cost of the
   sparse topology-indexed network at n=1000 — O(n + links-used) where
   the dense layout allocates five n^2-sized arrays.  A ring of sends
   materializes one pooled link record per process so the row prices a
   working steady state, not an empty table. *)
let sparse_create_kernel () =
  let n = 1000 in
  let rng = Mm_rng.Rng.create 5 in
  let net =
    Net.create ~rng ~n ~kind:Net.Reliable ~delay:(Net.Uniform (1, 4)) ()
  in
  for s = 0 to n - 1 do
    Net.send net ~now:0 ~src:(Id.of_int s) ~dst:(Id.of_int ((s + 1) mod n))
      Bench_ping
  done;
  for now = 0 to 4 do
    Net.tick net ~now
  done;
  for d = 0 to n - 1 do
    ignore (Net.drain net (Id.of_int d))
  done

(* check/hbo-threshold-sweep: E15's threshold location at quick scale —
   certificate tables plus bisection probes on three 64-vertex
   families.  "budget" is the family count, the sweep-row convention's
   trials-per-run analogue. *)
let threshold_families = 3

let threshold_sweep_kernel () =
  ignore (Mm_bench.Experiments.e15_threshold_sweep `Quick)

(* mem/backend-overhead-*: the raw per-op cost of each register backend,
   read and write separately — one shared register over 4 processes,
   [mem_ops] ops per run straight against the store (no engine).  The
   native rows are the m&m baseline; the emulated/native ratio prices
   the ABD quorum-round accounting on the register hot path. *)
let mem_ops = 1_000

let mem_backend_kernel backend op () =
  let n = 4 in
  let store = Mm_mem.Mem.create ~backend (Domain_.full n) in
  let members = List.tl (Id.all n) in
  let r =
    Mm_mem.Mem.alloc store ~name:"B" ~owner:(Id.of_int 0)
      ~shared_with:members 0
  in
  let by = Id.of_int 1 in
  match op with
  | `Read -> for _ = 1 to mem_ops do ignore (Mm_mem.Mem.read r ~by) done
  | `Write -> for i = 1 to mem_ops do Mm_mem.Mem.write r ~by i done

let mem_backend_kernels =
  List.concat_map
    (fun (bname, backend) ->
      List.map
        (fun (oname, op) ->
          ( Printf.sprintf "mem/backend-overhead-%s-%s" bname oname,
            mem_backend_kernel backend op ))
        [ ("read", `Read); ("write", `Write) ])
    Mm_mem.Mem.Backend.all

(* check/hbo-sweep-emulated: the hbo wallclock sweep on the emulated
   backend — the end-to-end price of swapping every register for an ABD
   round, against check/hbo-sweep-wallclock-j1. *)
let hbo_sweep_emulated_kernel () =
  let params =
    {
      Mm_check.Scenario.default_params with
      graph = Some (B.complete 4);
      backend = Mm_mem.Mem.Backend.Emulated;
      max_steps = Some 20_000;
    }
  in
  ignore
    (Runner.sweep
       (module Mm_check.Scenario_hbo)
       ~master_seed:7 ~budget:24 ~jobs:1 ~params ())

(* check/<scenario>-sweep: a fixed-budget sweep of every registered
   scenario through the generic engine, on one shared small
   configuration.  These kernels' JSON rows also carry the trial budget
   (see [kernel_budgets]) so downstream tooling can normalize ns/run to
   ns/trial. *)
let sweep_budget = 4

let sweep_params =
  {
    Mm_check.Scenario.default_params with
    graph = Some (B.complete 4);
    n = 4;
    max_steps = Some 20_000;
    crash_window = Some 2_000;
    warmup = Some 8_000;
    window = Some 2_000;
  }

let sweep_kernels =
  List.map
    (fun ((module S : Mm_check.Scenario.S) as sc) ->
      ( Printf.sprintf "check/%s-sweep" S.name,
        fun () ->
          ignore
            (Runner.sweep sc ~master_seed:7 ~budget:sweep_budget ~jobs:1
               ~params:sweep_params ()) ))
    Mm_check.Registry.all

(* check/<scenario>-nemesis: the same fixed-budget sweeps with a staged
   fault timeline (partitions, degradation, freeze/thaw) drawn per
   trial — the cost of the structured adversary relative to the plain
   sweep kernels above. *)
let nemesis_params = { sweep_params with Mm_check.Scenario.nemesis = true }

let nemesis_kernels =
  List.map
    (fun ((module S : Mm_check.Scenario.S) as sc) ->
      ( Printf.sprintf "check/%s-nemesis" S.name,
        fun () ->
          ignore
            (Runner.sweep sc ~master_seed:7 ~budget:sweep_budget ~jobs:1
               ~params:nemesis_params ()) ))
    Mm_check.Registry.all

(* check/smr-restart-sweep: the smr sweep kernel with crash-recovery
   restart windows drawn per trial — the cost of the restart machinery
   (timeline draw, guarded crash/revive [Engine.at] pairs, log rebuild
   from the slot registers on recovery) relative to check/smr-sweep. *)
let restart_sweep_params =
  { sweep_params with Mm_check.Scenario.restarts = true }

let restart_kernels =
  [
    ( "check/smr-restart-sweep",
      fun () ->
        ignore
          (Runner.sweep
             (module Mm_check.Scenario_smr)
             ~master_seed:7 ~budget:sweep_budget ~jobs:1
             ~params:restart_sweep_params ()) );
  ]

let kernel_budgets =
  List.map
    (fun (name, _) -> (name, sweep_budget))
    (sweep_kernels @ nemesis_kernels @ restart_kernels)
  (* mem/* rows carry their op count so tooling can derive ns/op. *)
  @ List.map (fun (name, _) -> (name, mem_ops)) mem_backend_kernels
  @ [ ("check/hbo-threshold-sweep", threshold_families) ]

(* ------------------------------------------------------------------ *)
(* Derived perf rows: measured directly rather than through bechamel,
   because each one reports a ratio or a GC counter alongside (or
   instead of) a wallclock number.  The extra JSON fields ride along in
   the same row; tools/bench_diff.ml validates the ones it knows and
   ignores the rest. *)

let now_ns () = Int64.to_float (Clock.now ())

(* Best-of-[repeat] wallclock: cheap robustness against scheduler noise
   without bechamel's quota machinery (these kernels are too slow for a
   0.25 s quota anyway). *)
let time_ns ~repeat f =
  let best = ref infinity in
  for _ = 1 to repeat do
    let t0 = now_ns () in
    f ();
    let dt = now_ns () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* check/dedup-hit-rate: hbo trials quantized to 16 distinct generated
   configs, so a budget-64 sweep re-draws mostly duplicates and the
   fingerprint memo skips them.  The quantizing [gen] still draws the
   whole trial from one rng in a fixed order (via an inner generator
   seeded by the drawn bucket), so the replay contract — and hence the
   fingerprint soundness argument — is intact. *)
module Dedup_hbo : Mm_check.Scenario.S = struct
  module H = Mm_check.Scenario_hbo
  include H

  let name = "hbo-dedup16"
  let gen cfg rng = H.gen cfg (Mm_rng.Rng.create (Mm_rng.Rng.int rng 16))
end

let dedup_row ~smoke =
  let budget = if smoke then 8 else 64 in
  let report = ref None in
  let ns =
    time_ns ~repeat:(if smoke then 1 else 3) (fun () ->
        report :=
          Some
            (Runner.sweep
               (module Dedup_hbo)
               ~master_seed:7 ~budget ~jobs:1 ~params:sweep_params ()))
  in
  let r = Option.get !report in
  ( "check/dedup-hit-rate",
    ns,
    Printf.sprintf
      ", \"budget\": %d, \"distinct\": %d, \"deduped\": %d, \"hit_rate\": %.3f"
      budget r.Runner.distinct_trials r.Runner.deduped
      (float_of_int r.Runner.deduped /. float_of_int (max 1 r.Runner.trials_run))
  )

(* gc/minor-words-per-trial: minor-heap allocation per trial of a
   short-trial abd sweep — execution is deliberately tiny (one op per
   process, no trace buffer), so the row isolates the fixed per-trial
   simulator cost: building a fresh engine.  ns_per_run carries the
   words per trial (same lower-is-better direction bench_diff
   assumes). *)
let gc_params =
  {
    Mm_check.Scenario.default_params with
    n = 3;
    max_ops = Some 1;
    max_steps = Some 20_000;
    trace_tail = 0;
  }

let gc_row ~smoke =
  let budget = if smoke then 8 else 256 in
  let sweep () =
    ignore
      (Runner.sweep
         (module Mm_check.Scenario_abd)
         ~master_seed:7 ~budget ~jobs:1 ~params:gc_params ())
  in
  sweep ();
  (* warm: exclude one-time setup from the counter delta *)
  let before = Gc.minor_words () in
  sweep ();
  ( "gc/minor-words-per-trial",
    (Gc.minor_words () -. before) /. float_of_int budget,
    Printf.sprintf ", \"budget\": %d" budget )

(* check/sweep-scaling-j{1,2,4,8}: the same clean fixed-budget hbo sweep
   at four --jobs settings, timed wall-clock (best-of-repeat), with the
   whole speedup curve relative to j1 recorded alongside — bench_diff
   gates the curve (monotone in j, floor on j4), not a single point.
   Each row carries the requested "jobs", the "domains" that actually
   ran (the Runner caps workers at the core count, and the pool at the
   chunk count), the host's "cores" so downstream tooling can judge the
   curve fairly on small machines, and the per-domain claimed/dedup-hit
   split (satellite diagnostics; timing-dependent, unlike the report).
   speedup_j4 on the j4 row is the one-number summary the perf
   trajectory tracks across PRs. *)
let scaling_jobs = [ 1; 2; 4; 8 ]

let scaling_rows ~smoke =
  let budget = if smoke then 8 else 48 in
  let repeat = if smoke then 1 else 3 in
  let run jobs =
    Runner.sweep_stats
      (module Mm_check.Scenario_hbo)
      ~master_seed:7 ~budget ~jobs ~params:sweep_params ()
  in
  ignore (run 1);
  (* warm: one-time setup out of the j1 baseline *)
  let cores = Stdlib.Domain.recommended_domain_count () in
  let measured =
    List.map
      (fun jobs ->
        let stats = ref [||] in
        let ns = time_ns ~repeat (fun () -> stats := snd (run jobs)) in
        (jobs, ns, !stats))
      scaling_jobs
  in
  let ns1 =
    match measured with (1, ns, _) :: _ -> ns | _ -> assert false
  in
  List.map
    (fun (jobs, ns, stats) ->
      let per_domain field f =
        Printf.sprintf ", \"%s\": [%s]" field
          (String.concat ", "
             (Array.to_list
                (Array.map (fun s -> string_of_int (f s)) stats)))
      in
      let extras =
        Printf.sprintf
          ", \"budget\": %d, \"jobs\": %d, \"domains\": %d, \"cores\": %d, \
           \"speedup\": %.3f%s%s%s"
          budget jobs (Array.length stats) cores (ns1 /. ns)
          (if jobs = 4 then Printf.sprintf ", \"speedup_j4\": %.3f" (ns1 /. ns)
           else "")
          (per_domain "claimed_per_domain" (fun s -> s.Runner.claimed))
          (per_domain "dedup_hits_per_domain" (fun s -> s.Runner.dedup_hits))
      in
      (Printf.sprintf "check/sweep-scaling-j%d" jobs, ns, extras))
    measured

(* kv/latency-p99-partition: one 3-replica shard under open-loop load
   with a hand-authored partition isolating the leader mid-run; the
   latency histogram is windowed into warm / partitioned / healed thirds
   with {!Mm_kv.Kv.window_hist}.  ns_per_run is the healed-window p99 in
   engine ticks (lower is better — a regression here means the service
   stops recovering its tail after a heal); "p99_warm" and
   "p99_partition" ride along so the spike itself is visible in the
   recorded JSON.  Everything is seed-deterministic: no wallclock, no
   repeat loop.

   kv/local-read-p50: the same load with and without the paper's §5.3
   leader fast path.  ns_per_run is the local-reads get p50 (ticks);
   "p50_no_local" is the through-the-log baseline and "read_speedup"
   the ratio. *)
module Kv = Mm_kv.Kv
module Kv_wl = Mm_kv.Workload
module Kv_hist = Mm_kv.Histogram
module Nemesis = Mm_check.Nemesis

let kv_spec ~smoke ~gap =
  {
    Kv_wl.clients = 200;
    ops = (if smoke then 120 else 600);
    mean_gap = gap;
    key_space = 64;
    theta = 0.9;
    read_fraction = 0.8;
  }

let kv_q hist p =
  match Kv_hist.percentile hist p with Some v -> float_of_int v | None -> 0.0

let kv_partition_row ~smoke =
  (* A gap well above the shard's service time keeps the warm tail low
     (queueing delay would otherwise swamp the partition signal). *)
  let gap = 120 in
  let spec = kv_spec ~smoke ~gap:(float_of_int gap) in
  let span = spec.Kv_wl.ops * gap in
  (* Cut the leader (pid 0) away from its peers for the third quarter
     of the arrival span — the first quarter absorbs the initial
     leader-election transient, so the second quarter is the warm
     baseline.  Registers survive the partition, so decisions keep
     landing; only the ingress->leader Forward hop is held, which is
     exactly the tail-latency mechanism under test. *)
  let nemesis =
    [
      {
        Nemesis.at = span / 2;
        duration = span / 4;
        fault = Nemesis.Partition [ [ 0 ]; [ 1; 2 ] ];
      };
    ]
  in
  let workload = Kv_wl.gen (Mm_rng.Rng.create 11) spec ~replicas:3 in
  let o =
    Kv.run ~seed:11 ~max_steps:(20 * span)
      ~prepare:(Nemesis.install nemesis) ~shards:1 ~replicas:3 ~workload ()
  in
  let window ~from ~until = Kv.window_hist o ~from ~until () in
  (* The warm window ends a guard band before the cut: a request arriving
     moments before the partition is trapped by it and would otherwise
     contaminate the baseline tail. *)
  let p99_warm = kv_q (window ~from:(span / 4) ~until:((span / 2) - (10 * gap))) 99.0 in
  let p99_part = kv_q (window ~from:(span / 2) ~until:(3 * span / 4)) 99.0 in
  let p99_healed = kv_q (window ~from:(3 * span / 4) ~until:max_int) 99.0 in
  ( "kv/latency-p99-partition",
    p99_healed,
    Printf.sprintf
      ", \"budget\": %d, \"p99_warm\": %.1f, \"p99_partition\": %.1f, \
       \"completed\": %d"
      spec.Kv_wl.ops p99_warm p99_part o.Kv.completed )

(* kv/failover-p99: the partition row's crash-recovery sibling.  The
   shard leader is crashed and rebooted through its recovery closure for
   the third quarter of the arrival span, with per-op client deadlines
   armed; the rebooted replica rebuilds its log from the crash-surviving
   slot registers and re-claims the requests it was shepherding.
   ns_per_run is the healed-window p99 (ticks) — a regression means the
   service stops recovering its tail after a failover; "p99_warm" and
   "p99_failover" expose the spike itself, "timeouts" the requests the
   client gave up on. *)
let kv_failover_row ~smoke =
  let gap = 120 in
  let spec = kv_spec ~smoke ~gap:(float_of_int gap) in
  let span = spec.Kv_wl.ops * gap in
  let timeline =
    [
      {
        Nemesis.at = span / 2;
        duration = span / 4;
        fault = Nemesis.Restart [ 0 ];
      };
    ]
  in
  let workload = Kv_wl.gen (Mm_rng.Rng.create 11) spec ~replicas:3 in
  let o =
    Kv.run ~seed:11 ~max_steps:(20 * span) ~prepare:(Nemesis.install timeline)
      ~op_timeout:(2 * span) ~shards:1 ~replicas:3 ~workload ()
  in
  let window ~from ~until = Kv.window_hist o ~from ~until () in
  let p99_warm =
    kv_q (window ~from:(span / 4) ~until:((span / 2) - (10 * gap))) 99.0
  in
  let p99_fail = kv_q (window ~from:(span / 2) ~until:(3 * span / 4)) 99.0 in
  let p99_healed = kv_q (window ~from:(3 * span / 4) ~until:max_int) 99.0 in
  ( "kv/failover-p99",
    p99_healed,
    Printf.sprintf
      ", \"budget\": %d, \"p99_warm\": %.1f, \"p99_failover\": %.1f, \
       \"timeouts\": %d, \"completed\": %d"
      spec.Kv_wl.ops p99_warm p99_fail o.Kv.timeouts o.Kv.completed )

let kv_local_read_row ~smoke =
  let spec = kv_spec ~smoke ~gap:40.0 in
  let span = spec.Kv_wl.ops * 40 in
  let run ~local_reads =
    let workload = Kv_wl.gen (Mm_rng.Rng.create 11) spec ~replicas:3 in
    Kv.run ~seed:11 ~max_steps:(40 * span) ~local_reads ~shards:1 ~replicas:3
      ~workload ()
  in
  let get_p50 o = kv_q (Kv.window_hist o ~op:`Get ~from:0 ~until:max_int ()) 50.0 in
  let p50_local = get_p50 (run ~local_reads:true) in
  let p50_log = get_p50 (run ~local_reads:false) in
  ( "kv/local-read-p50",
    p50_local,
    Printf.sprintf
      ", \"budget\": %d, \"p50_no_local\": %.1f, \"read_speedup\": %.2f"
      spec.Kv_wl.ops p50_log
      (p50_log /. Float.max p50_local 1.0) )

let derived_rows ~smoke () =
  [
    dedup_row ~smoke; gc_row ~smoke;
    kv_partition_row ~smoke; kv_failover_row ~smoke;
    kv_local_read_row ~smoke;
  ]
  @ scaling_rows ~smoke

(* One micro-kernel per experiment table: the time being measured is the
   dominant computational piece that the table's rows are built from. *)
let kernels =
  [
    ( "e1/domain-construction",
      fun () ->
        ignore
          (Domain_.uniform_of_graph
             (Mm_graph.Graph.create 5 [ (0, 1); (1, 2); (2, 3); (2, 4); (3, 4) ]))
    );
    ( "e2/ben-or-n4",
      fun () -> ignore (Ben_or.run ~seed:1 ~n:4 ~inputs:(inputs 4) ()) );
    ( "e3/expansion-exact-q3",
      fun () ->
        let h = E.vertex_expansion_exact (B.hypercube 3) in
        ignore (E.ft_bound ~h ~n:8) );
    ( "e4/sm-cut-search-barbell",
      fun () -> ignore (Cut.min_f_with_cut (B.barbell ~k:3 ~bridge:1)) );
    ( "e5/omega-reliable-n3",
      fun () ->
        ignore
          (Omega.run ~seed:1 ~warmup:6_000 ~window:1_000
             ~variant:Omega.Reliable ~n:3 ()) );
    ( "e6/omega-lossy-n3",
      fun () ->
        ignore
          (Omega.run ~seed:1 ~warmup:8_000 ~window:1_000
             ~variant:(Omega.Fair_lossy 0.3) ~n:3 ()) );
    ( "e7/omega-counter-fold",
      fun () ->
        let o =
          Omega.run ~seed:1 ~warmup:6_000 ~window:1_000
            ~variant:Omega.Reliable ~n:3 ()
        in
        ignore
          (Array.fold_left
             (fun acc c -> acc + Mm_mem.Mem.total_ops c)
             0 o.Omega.window_mem) );
    ( "e8/mp-omega-n3",
      fun () -> ignore (Mp.run ~seed:1 ~warmup:6_000 ~window:1_000 ~n:3 ()) );
    ( "e9/mutex-both-n3",
      fun () ->
        ignore (Mutex.run_bakery ~seed:1 ~n:3 ~entries:2 ());
        ignore (Mutex.run_mm ~seed:1 ~n:3 ~entries:2 ()) );
    ( "e10/abd-write-read",
      fun () ->
        ignore
          (Abd.run ~seed:1 ~n:3
             ~scripts:[| [ `Write 1; `Read ]; [ `Read ]; [] |]
             ()) );
    ( "e11/margulis-analysis",
      fun () ->
        let g = B.margulis ~m:4 in
        let rng = Mm_rng.Rng.create 7 in
        ignore (E.vertex_expansion_sampled rng g ~samples:50) );
    ( "e12/paxos-sm-n4",
      fun () ->
        ignore
          (Mm_consensus.Paxos.run ~seed:1 ~oracle:Mm_consensus.Paxos.Heartbeat
             ~n:4 ~inputs:(inputs 4) ()) );
    ( "e13/replicated-log-n3",
      fun () ->
        ignore
          (Mm_smr.Replicated_log.run ~seed:1 ~n:3 ~commands_per_proc:2 ()) );
    ( "e14/omega-memfail-n3",
      fun () ->
        ignore
          (Omega.run ~seed:1 ~warmup:8_000 ~window:1_000
             ~memory_failures:[ (0, 2_000) ] ~variant:Omega.Reliable ~n:3 ()) );
    ( "a1/hbo-registers-ring4",
      fun () ->
        ignore
          (Hbo.run ~seed:1 ~impl:Hbo.Registers ~graph:(B.ring 4)
             ~inputs:(inputs 4) ()) );
    ( "a2/ben-or-round-robin",
      fun () ->
        ignore
          (Ben_or.run ~seed:1 ~sched:(Sched.create Sched.Round_robin) ~n:4
             ~inputs:(inputs 4) ()) );
    ( "a3/expansion-sampled",
      fun () ->
        let rng = Mm_rng.Rng.create 7 in
        ignore (E.vertex_expansion_sampled rng (B.ring 12) ~samples:100) );
    ("engine/steps-per-sec", engine_steps_kernel);
    ("engine/big-n-steps-n100", big_n_steps_kernel 100);
    ("engine/big-n-steps-n1000", big_n_steps_kernel 1000);
    ("net/tick-saturated", net_tick_kernel);
    ("net/sparse-create-n1000", sparse_create_kernel);
    ("check/hbo-threshold-sweep", threshold_sweep_kernel);
    ("check/hbo-sweep-wallclock-j1", hbo_sweep_kernel 1);
    ("check/hbo-sweep-wallclock-j4", hbo_sweep_kernel 4);
    ("check/hbo-sweep-emulated", hbo_sweep_emulated_kernel);
  ]
  @ mem_backend_kernels @ sweep_kernels @ nemesis_kernels @ restart_kernels

let tests =
  List.map
    (fun (name, kernel) -> Test.make ~name (Staged.stage kernel))
    kernels

(* Measure every kernel and return (name, ns-per-run) pairs in kernel
   declaration order.  [smoke] shrinks the quota to a bare minimum so CI
   can validate the harness end-to-end without paying for stable
   estimates (see the @bench-smoke alias). *)
let measure_benchmarks ?(smoke = false) () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:2 ~quota:(Time.second 0.001) ~stabilize:false ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.fold
        (fun name ols_result acc ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some [ x ] -> x
            | _ -> Float.nan
          in
          (name, ns) :: acc)
        analysis [])
    tests

let run_benchmarks () =
  print_endline "== micro-benchmarks (one kernel per experiment table) ==";
  Printf.printf "%-28s %14s\n" "kernel" "ns/run";
  Printf.printf "%-28s %14s\n" (String.make 28 '-') (String.make 14 '-');
  List.iter
    (fun (name, ns) -> Printf.printf "%-28s %14.0f\n" name ns)
    (measure_benchmarks ());
  List.iter
    (fun (name, v, extras) -> Printf.printf "%-28s %14.0f%s\n" name v extras)
    (derived_rows ~smoke:false ());
  print_newline ()

(* JSON string escaping for kernel names (they only use [a-z0-9/-], but
   stay correct regardless). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Machine-readable mode: exactly one JSON array on stdout, one object
   per kernel; NaN (no estimate) becomes null. *)
let run_benchmarks_json ~smoke () =
  let results = measure_benchmarks ~smoke () in
  print_string "[";
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then print_string ",";
      let ns_field =
        if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns
      in
      let budget_field =
        match List.assoc_opt name kernel_budgets with
        | Some b -> Printf.sprintf ", \"budget\": %d" b
        | None -> ""
      in
      Printf.printf "\n  {\"kernel\": \"%s\", \"ns_per_run\": %s%s}"
        (json_escape name) ns_field budget_field)
    results;
  List.iter
    (fun (name, v, extras) ->
      Printf.printf ",\n  {\"kernel\": \"%s\", \"ns_per_run\": %.1f%s}"
        (json_escape name) v extras)
    (derived_rows ~smoke ());
  print_string "\n]\n"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let no_bench = List.mem "--no-bench" args in
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  let wanted =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  let scale = if quick then `Quick else `Full in
  if json then begin
    run_benchmarks_json ~smoke ();
    exit 0
  end;
  if not no_bench then run_benchmarks ();
  let to_run =
    match wanted with
    | [] -> Mm_bench.Experiments.all
    | ids ->
      List.filter_map
        (fun id ->
          match Mm_bench.Experiments.find id with
          | Some f -> Some (String.uppercase_ascii id, f)
          | None ->
            Printf.eprintf "unknown experiment %S\n" id;
            None)
        ids
  in
  List.iter (fun (_id, f) -> Mm_bench.Table.print (f scale)) to_run
