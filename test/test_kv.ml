(* Tests for the sharded KV service: histogram exactness, workload
   generation, end-to-end runs (completion, consistency, per-key
   linearizability), the partition tail-latency story, and sweep
   determinism across --jobs. *)

module Rng = Mm_rng.Rng
module H = Mm_kv.Histogram
module W = Mm_kv.Workload
module Kv = Mm_kv.Kv
module Engine = Mm_sim.Engine
module Nemesis = Mm_check.Nemesis
module Monitor = Mm_check.Monitor
module Runner = Mm_check.Runner
module Scenario = Mm_check.Scenario

let q h p = H.percentile h p

(* --- histogram --- *)

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check (option int)) "p50" None (q h 50.0);
  Alcotest.(check (option int)) "max" None (H.max_value h);
  Alcotest.(check bool) "mean" true (H.mean h = None);
  Alcotest.(check string) "summary" "n=0"
    (Format.asprintf "%a" H.pp_summary h)

let test_hist_exact_quantiles () =
  (* 1..100, one sample each: nearest-rank percentiles are exact. *)
  let h = H.of_list (List.init 100 (fun i -> i + 1)) in
  Alcotest.(check (option int)) "p50" (Some 50) (q h 50.0);
  Alcotest.(check (option int)) "p99" (Some 99) (q h 99.0);
  Alcotest.(check (option int)) "p999" (Some 100) (q h 99.9);
  Alcotest.(check (option int)) "p100" (Some 100) (q h 100.0);
  Alcotest.(check (option int)) "p1" (Some 1) (q h 1.0);
  Alcotest.(check (option int)) "max" (Some 100) (H.max_value h);
  Alcotest.(check bool) "mean" true (H.mean h = Some 50.5)

let test_hist_single_and_ties () =
  let h = H.of_list [ 7 ] in
  Alcotest.(check (option int)) "single p50" (Some 7) (q h 50.0);
  Alcotest.(check (option int)) "single p999" (Some 7) (q h 99.9);
  let t = H.of_list [ 3; 3; 3; 9 ] in
  Alcotest.(check (option int)) "ties p50" (Some 3) (q t 50.0);
  Alcotest.(check (option int)) "ties p99" (Some 9) (q t 99.0)

let test_hist_merge_associative () =
  let a = H.of_list [ 1; 5; 9 ] in
  let b = H.of_list [ 2; 5 ] in
  let c = H.of_list [ 100; 0; 5 ] in
  let l = H.merge (H.merge a b) c in
  let r = H.merge a (H.merge b c) in
  List.iter
    (fun p ->
      Alcotest.(check (option int))
        (Printf.sprintf "p%.1f assoc" p)
        (q l p) (q r p))
    [ 1.0; 50.0; 99.0; 99.9; 100.0 ];
  Alcotest.(check int) "count" (H.count l) (H.count r);
  (* merge leaves its arguments untouched *)
  Alcotest.(check int) "a intact" 3 (H.count a);
  Alcotest.(check (option int)) "c intact max" (Some 100) (H.max_value c)

let test_hist_invalid () =
  let h = H.create () in
  Alcotest.check_raises "negative add"
    (Invalid_argument "Histogram.add: negative sample") (fun () -> H.add h (-1));
  H.add h 3;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p=%.1f rejected" p)
        true
        (match q h p with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ 0.0; -1.0; 100.5 ]

let test_hist_saturation () =
  let h = H.create () in
  H.add h (H.saturation + 5);
  H.add h max_int;
  Alcotest.(check (option int)) "clamped" (Some (H.saturation - 1))
    (H.max_value h);
  Alcotest.(check int) "both counted" 2 (H.count h)

(* --- workload --- *)

let spec =
  {
    W.clients = 40;
    ops = 200;
    mean_gap = 10.0;
    key_space = 16;
    theta = 1.0;
    read_fraction = 0.5;
  }

let test_workload_deterministic () =
  let a = W.gen (Rng.create 5) spec ~replicas:3 in
  let b = W.gen (Rng.create 5) spec ~replicas:3 in
  Alcotest.(check int) "count" (Array.length a.W.requests)
    (Array.length b.W.requests);
  Array.iteri
    (fun i (ra : W.request) ->
      let rb = b.W.requests.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "request %d equal" i)
        true
        (ra.W.client = rb.W.client && ra.W.key = rb.W.key
        && ra.W.arrival = rb.W.arrival && ra.W.ingress = rb.W.ingress
        && ra.W.op = rb.W.op))
    a.W.requests

let test_workload_shape () =
  let w = W.gen (Rng.create 5) spec ~replicas:3 in
  Alcotest.(check int) "ops" spec.W.ops (Array.length w.W.requests);
  let prev = ref 0 in
  Array.iter
    (fun (r : W.request) ->
      Alcotest.(check bool) "arrivals monotone" true (r.W.arrival >= !prev);
      prev := r.W.arrival;
      Alcotest.(check bool) "key in range" true
        (r.W.key >= 0 && r.W.key < spec.W.key_space);
      Alcotest.(check bool) "client in range" true
        (r.W.client >= 0 && r.W.client < spec.W.clients);
      Alcotest.(check bool) "ingress in range" true
        (r.W.ingress >= 0 && r.W.ingress < 3))
    w.W.requests;
  (* put values are globally unique and nonzero *)
  let puts =
    Array.to_list w.W.requests
    |> List.filter_map (fun (r : W.request) ->
           match r.W.op with W.Put v -> Some v | W.Get -> None)
  in
  Alcotest.(check bool) "nonzero puts" true (List.for_all (fun v -> v > 0) puts);
  Alcotest.(check int) "unique puts" (List.length puts)
    (List.length (List.sort_uniq compare puts))

let test_workload_zipf_skew () =
  (* theta >> 0 concentrates mass on key 0 relative to uniform. *)
  let count_key0 theta =
    let w = W.gen (Rng.create 7) { spec with W.ops = 2_000; theta } ~replicas:3 in
    Array.fold_left
      (fun acc (r : W.request) -> if r.W.key = 0 then acc + 1 else acc)
      0 w.W.requests
  in
  Alcotest.(check bool) "skewed > uniform" true
    (count_key0 1.2 > 2 * count_key0 0.0)

let test_workload_validate () =
  List.iter
    (fun (name, bad) ->
      Alcotest.(check bool) name true
        (match W.gen (Rng.create 1) bad ~replicas:3 with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      ("clients", { spec with W.clients = 0 });
      ("ops", { spec with W.ops = -1 });
      ("gap", { spec with W.mean_gap = 0.0 });
      ("keys", { spec with W.key_space = 0 });
      ("theta", { spec with W.theta = -0.5 });
      ("read fraction", { spec with W.read_fraction = 1.5 });
    ];
  Alcotest.(check bool) "replicas" true
    (match W.gen (Rng.create 1) spec ~replicas:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- end-to-end service runs --- *)

let run_kv ?(seed = 3) ?(shards = 2) ?(local_reads = true) ?prepare
    ?(sp = spec) () =
  let wl = W.gen (Rng.create 21) sp ~replicas:3 in
  Kv.run ~seed ~max_steps:600_000 ?prepare ~local_reads ~shards ~replicas:3
    ~workload:wl ()

let test_kv_completes_and_linearizes () =
  let o = run_kv () in
  Alcotest.(check int) "all completed" spec.W.ops o.Kv.completed;
  Alcotest.(check bool) "consistent" true o.Kv.consistent;
  Alcotest.(check bool) "no crashes" true
    (Array.for_all not o.Kv.run.crashed);
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) name true (Monitor.is_pass (m o)))
    [
      ("kv-log-consistent", Monitor.kv_log_consistent);
      ("kv-linearizable", Monitor.kv_linearizable);
      ("kv-complete", Monitor.kv_complete);
    ];
  (* histograms account exactly for the completed requests *)
  let hist_n =
    Array.fold_left (fun a h -> a + H.count h) 0 o.Kv.get_hist
    + Array.fold_left (fun a h -> a + H.count h) 0 o.Kv.put_hist
  in
  Alcotest.(check int) "histogram totals" o.Kv.completed hist_n;
  (* every shard decided every applied slot identically across replicas *)
  Alcotest.(check int) "no duplicate applies recorded twice" 0
    o.Kv.duplicate_applies

let test_kv_local_read_speedup () =
  let p50 (o : Kv.outcome) =
    let h = Array.fold_left H.merge (H.create ()) o.Kv.get_hist in
    Option.value ~default:max_int (H.percentile h 50.0)
  in
  let local = run_kv ~local_reads:true () in
  let through = run_kv ~local_reads:false () in
  Alcotest.(check int) "local completes" spec.W.ops local.Kv.completed;
  Alcotest.(check int) "log-path completes" spec.W.ops through.Kv.completed;
  Alcotest.(check bool) "local read p50 no slower" true
    (p50 local <= p50 through)

let test_kv_partition_spike () =
  (* One shard, leader cut off mid-run: p99 of arrivals inside the
     window must spike above the warm p99 and recover after the heal.
     A latency spike is asserted, not just recorded. *)
  (* Keep the put rate well under the shard's ballot throughput (reads
     are served locally, so only puts queue): a saturated shard's
     queueing tail would swamp the partition signal. *)
  let sp =
    {
      W.ops = 300;
      clients = 100;
      mean_gap = 120.0;
      key_space = 64;
      theta = 0.9;
      read_fraction = 0.8;
    }
  in
  let span = sp.W.ops * 120 in
  let nemesis =
    [
      {
        Nemesis.at = span / 2;
        duration = span / 4;
        fault = Nemesis.Partition [ [ 0 ]; [ 1; 2 ] ];
      };
    ]
  in
  let wl = W.gen (Rng.create 11) sp ~replicas:3 in
  let o =
    Kv.run ~seed:11 ~max_steps:(20 * span) ~prepare:(Nemesis.install nemesis)
      ~shards:1 ~replicas:3 ~workload:wl ()
  in
  Alcotest.(check int) "completed despite partition" sp.W.ops o.Kv.completed;
  let p99 ~from ~until =
    Option.value ~default:0
      (H.percentile (Kv.window_hist o ~from ~until ()) 99.0)
  in
  (* A guard band before the partition start keeps requests that arrive
     moments before the cut (and are trapped by it) out of the warm
     window. *)
  let warm = p99 ~from:(span / 4) ~until:((span / 2) - (10 * 120)) in
  let part = p99 ~from:(span / 2) ~until:(3 * span / 4) in
  let healed = p99 ~from:(3 * span / 4) ~until:max_int in
  Alcotest.(check bool)
    (Printf.sprintf "partition spikes p99 (%d > %d)" part warm)
    true
    (part > 2 * warm);
  Alcotest.(check bool)
    (Printf.sprintf "heal recovers p99 (%d < %d)" healed part)
    true
    (healed < part / 2);
  Alcotest.(check bool) "still linearizable" true
    (Monitor.is_pass (Monitor.kv_linearizable o));
  Alcotest.(check bool) "recovery monitor passes" true
    (Monitor.is_pass
       (Monitor.kv_recovers ~heal_by:(Nemesis.heal_step nemesis)
          ~settle:(10 * span) o))

let test_kv_crash_still_consistent () =
  (* Crash one replica of each shard mid-run: safety monitors must hold
     (completion is not asserted — a crashed ingress keeps its
     requests). *)
  let wl = W.gen (Rng.create 21) spec ~replicas:3 in
  let o =
    Kv.run ~seed:5 ~max_steps:600_000 ~crashes:[ (1, 400); (4, 900) ]
      ~shards:2 ~replicas:3 ~workload:wl ()
  in
  Alcotest.(check bool) "consistent" true
    (Monitor.is_pass (Monitor.kv_log_consistent o));
  Alcotest.(check bool) "linearizable" true
    (Monitor.is_pass (Monitor.kv_linearizable o));
  Alcotest.(check bool) "crashed flags set" true
    (o.Kv.run.crashed.(1) && o.Kv.run.crashed.(4))

(* --- client robustness: per-op deadlines --- *)

let test_kv_op_timeout_validation () =
  let wl = W.gen (Rng.create 21) spec ~replicas:3 in
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "op_timeout=%d rejected" bad)
        true
        (match
           Kv.run ~seed:3 ~op_timeout:bad ~shards:2 ~replicas:3 ~workload:wl ()
         with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ 0; -5 ]

(* With a deadline, the completion XOR expiry accounting must close the
   books: every request lands in the histograms or in [timeouts], never
   both, never neither — and the run then stops on its own [until]. *)
let test_kv_timeout_accounting () =
  let wl = W.gen (Rng.create 21) spec ~replicas:3 in
  let o =
    Kv.run ~seed:3 ~max_steps:600_000 ~op_timeout:150 ~shards:2 ~replicas:3
      ~workload:wl ()
  in
  Alcotest.(check bool) "books closed" true (o.Kv.run.reason = Engine.Stopped);
  Alcotest.(check (option int)) "deadline recorded" (Some 150) o.Kv.op_timeout;
  Alcotest.(check bool) "deadline tight enough to expire some" true
    (o.Kv.timeouts > 0);
  let expired =
    Array.fold_left
      (fun a (rc : Kv.op_record) -> if rc.Kv.expired then a + 1 else a)
      0 o.Kv.ops
  in
  Alcotest.(check int) "timeouts = expired flags" o.Kv.timeouts expired;
  let hist_n =
    Array.fold_left (fun a h -> a + H.count h) 0 o.Kv.get_hist
    + Array.fold_left (fun a h -> a + H.count h) 0 o.Kv.put_hist
  in
  Alcotest.(check int) "every request accounted exactly once"
    (Array.length o.Kv.ops)
    (hist_n + o.Kv.timeouts);
  (* an expired request may still complete later (at-least-once), but
     its latency stays out of the histograms *)
  Array.iter
    (fun (rc : Kv.op_record) ->
      if rc.Kv.expired then
        Alcotest.(check (option int)) "expired latency suppressed" None
          (Kv.latency rc))
    o.Kv.ops;
  (* the same seed without a deadline completes everything *)
  let free =
    Kv.run ~seed:3 ~max_steps:600_000 ~shards:2 ~replicas:3 ~workload:wl ()
  in
  Alcotest.(check int) "no deadline, no timeouts" 0 free.Kv.timeouts

(* --- window_hist: arrival-windowed latency views --- *)

let test_window_hist_edges () =
  let o = run_kv () in
  let count h = H.count h in
  let all = Kv.window_hist o ~from:0 ~until:max_int () in
  let hist_n =
    Array.fold_left (fun a h -> a + H.count h) 0 o.Kv.get_hist
    + Array.fold_left (fun a h -> a + H.count h) 0 o.Kv.put_hist
  in
  Alcotest.(check int) "full window covers every completed request" hist_n
    (count all);
  (* [from, from) is empty, and so is a window before any arrival *)
  Alcotest.(check int) "empty window" 0
    (count (Kv.window_hist o ~from:100 ~until:100 ()));
  Alcotest.(check (option int)) "empty window percentile" None
    (H.percentile (Kv.window_hist o ~from:0 ~until:0 ()) 50.0);
  (* the op filter partitions the window *)
  let g = Kv.window_hist o ~op:`Get ~from:0 ~until:max_int () in
  let p = Kv.window_hist o ~op:`Put ~from:0 ~until:max_int () in
  Alcotest.(check int) "gets + puts partition" (count all)
    (count g + count p);
  (* and so does the shard filter *)
  let s0 = Kv.window_hist o ~shard:0 ~from:0 ~until:max_int () in
  let s1 = Kv.window_hist o ~shard:1 ~from:0 ~until:max_int () in
  Alcotest.(check int) "shards partition" (count all) (count s0 + count s1);
  (* a one-step window around the earliest arrival holds at least that
     request, and its percentile surface degenerates to the max *)
  let a0 =
    Array.fold_left
      (fun a (rc : Kv.op_record) -> min a rc.Kv.req.W.arrival)
      max_int o.Kv.ops
  in
  let h1 = Kv.window_hist o ~from:a0 ~until:(a0 + 1) () in
  Alcotest.(check bool) "single-arrival window non-empty" true
    (count h1 >= 1);
  Alcotest.(check (option int)) "p100 = max" (H.max_value h1)
    (H.percentile h1 100.0)

(* merge is of_list of the concatenation — the property behind the
   sweep-side percentile aggregation. *)
let prop_hist_merge_is_concat =
  QCheck.Test.make ~count:200 ~name:"histogram: merge = of_list of concat"
    QCheck.(pair (list (int_bound 2_000)) (list (int_bound 2_000)))
    (fun (la, lb) ->
      let m = H.merge (H.of_list la) (H.of_list lb) in
      let c = H.of_list (la @ lb) in
      H.count m = H.count c
      && H.max_value m = H.max_value c
      && H.mean m = H.mean c
      && List.for_all
           (fun p -> H.percentile m p = H.percentile c p)
           [ 1.0; 25.0; 50.0; 90.0; 99.0; 99.9; 100.0 ])

(* --- the kv scenario through the sweep engine --- *)

let kv_params =
  { Scenario.default_params with n = 3; max_steps = Some 150_000 }

let report_fingerprint (r : Runner.report) =
  ( r.Runner.trials_run,
    r.Runner.distinct_trials,
    r.Runner.deduped,
    match r.Runner.violation with
    | None -> ""
    | Some cx ->
      Format.asprintf "%d|%d|%s|%s|%a|%a" cx.Runner.trial cx.Runner.trial_seed
        cx.Runner.property cx.Runner.detail Mm_check.Config.pp
        cx.Runner.config Mm_check.Config.pp cx.Runner.shrunk )

let test_kv_sweep_clean () =
  let r =
    Runner.sweep
      (module Mm_check.Scenario_kv)
      ~master_seed:1 ~budget:3 ~params:kv_params ()
  in
  Alcotest.(check bool) "no violation" true (r.Runner.violation = None);
  Alcotest.(check int) "all trials ran" 3 r.Runner.trials_run

let test_kv_jobs_deterministic () =
  (* The tentpole determinism claim: a parallel kv sweep reports
     byte-identically to the sequential one.  MM_CHECK_MAX_DOMAINS
     forces real worker domains even on small CI machines. *)
  let sweep jobs =
    Runner.sweep
      (module Mm_check.Scenario_kv)
      ~master_seed:9 ~budget:6 ~jobs ~params:kv_params ()
  in
  let r1 = sweep 1 in
  Unix.putenv "MM_CHECK_MAX_DOMAINS" "4";
  let r4 = sweep 4 in
  Unix.putenv "MM_CHECK_MAX_DOMAINS" "";
  Alcotest.(check bool) "jobs=4 report = jobs=1 report" true
    (report_fingerprint r1 = report_fingerprint r4)

let test_kv_starved_violation_shrinks () =
  (* A step budget far below what the workload needs starves completion:
     the fair crash-free monitor set flags kv-complete, and the shrinker
     must both reproduce it and emit a minimized config. *)
  let params =
    {
      Scenario.default_params with
      n = 3;
      shards = Some 1;
      clients = Some 20;
      max_steps = Some 40;
    }
  in
  let r =
    Runner.sweep
      (module Mm_check.Scenario_kv)
      ~master_seed:2 ~budget:30 ~params ()
  in
  match r.Runner.violation with
  | None -> Alcotest.fail "expected a starved kv-complete violation"
  | Some cx ->
    Alcotest.(check string) "property" "kv-complete" cx.Runner.property;
    Alcotest.(check bool) "shrunk config non-empty" true
      (cx.Runner.shrunk <> []);
    (* the violation replays from its reported seed *)
    let rep =
      Runner.replay
        (module Mm_check.Scenario_kv)
        ~params ~trial_seed:cx.Runner.trial_seed ()
    in
    (match rep.Runner.violation with
    | Some cx' ->
      Alcotest.(check string) "replay property" cx.Runner.property
        cx'.Runner.property
    | None -> Alcotest.fail "replay lost the violation")

let () =
  Alcotest.run "kv"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "exact quantiles" `Quick test_hist_exact_quantiles;
          Alcotest.test_case "single + ties" `Quick test_hist_single_and_ties;
          Alcotest.test_case "merge associative" `Quick
            test_hist_merge_associative;
          Alcotest.test_case "invalid args" `Quick test_hist_invalid;
          Alcotest.test_case "saturation clamp" `Quick test_hist_saturation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "shape" `Quick test_workload_shape;
          Alcotest.test_case "zipf skew" `Quick test_workload_zipf_skew;
          Alcotest.test_case "validation" `Quick test_workload_validate;
        ] );
      ( "service",
        [
          Alcotest.test_case "completes + linearizes" `Quick
            test_kv_completes_and_linearizes;
          Alcotest.test_case "local-read speedup" `Quick
            test_kv_local_read_speedup;
          Alcotest.test_case "partition p99 spike + recovery" `Quick
            test_kv_partition_spike;
          Alcotest.test_case "op-timeout validation" `Quick
            test_kv_op_timeout_validation;
          Alcotest.test_case "timeout accounting" `Quick
            test_kv_timeout_accounting;
          Alcotest.test_case "window_hist edges" `Quick test_window_hist_edges;
          QCheck_alcotest.to_alcotest prop_hist_merge_is_concat;
          Alcotest.test_case "crash safety" `Quick
            test_kv_crash_still_consistent;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "sweep clean" `Quick test_kv_sweep_clean;
          Alcotest.test_case "jobs determinism" `Quick
            test_kv_jobs_deterministic;
          Alcotest.test_case "starved violation shrinks" `Quick
            test_kv_starved_violation_shrinks;
        ] );
    ]
