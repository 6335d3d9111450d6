(* kv_smoke — `dune build @kv-smoke`: drive the sharded KV service
   end-to-end in a few seconds.

   Four legs, each `exit 1` on failure:
   1. a latency-harness run (2 shards x 3 replicas, open-loop Zipf
      load) that must complete every request, stay slot-consistent,
      and print the per-shard percentile table;
   2. the same workload with local reads off — the log-path baseline
      must not beat the §5.3 local-read path on read p50;
   3. a 1-trial `kv` sweep through the generic checker, clean and with
      a nemesis timeline (the registry smokes also cover these; here
      they run even when invoked standalone);
   4. a full-size write-failover run (4 shards x 3 replicas, 12k ops,
      80% puts, two cycles of a shard-0 leader restart then a shard-1
      leader partition, per-op deadlines): every request completes or
      expires, the shard logs agree, and every acknowledged put is
      durable.  It runs the retry clocks, recovery re-claims and expiry
      at benchmark scale. *)

module Kv = Mm_kv.Kv
module W = Mm_kv.Workload
module H = Mm_kv.Histogram
module Scenario = Mm_check.Scenario
module Runner = Mm_check.Runner
module Nemesis = Mm_check.Nemesis
module Monitor = Mm_check.Monitor

let failed = ref false

let check name ok =
  if not ok then begin
    Printf.printf "kv-smoke FAIL: %s\n" name;
    failed := true
  end

let spec =
  {
    W.clients = 300;
    ops = 400;
    mean_gap = 40.0;
    key_space = 128;
    theta = 0.9;
    read_fraction = 0.8;
  }

let () =
  let wl = W.gen (Mm_rng.Rng.create 21) spec ~replicas:3 in
  let run ~local_reads =
    Kv.run ~seed:3 ~max_steps:600_000 ~local_reads ~shards:2 ~replicas:3
      ~workload:wl ()
  in
  let o = run ~local_reads:true in
  check "all requests completed" (o.Kv.completed = spec.W.ops);
  check "slot-consistent" o.Kv.consistent;
  Printf.printf "kv: %d clients, %d ops, %d shard(s) x %d replicas, %d steps\n"
    spec.W.clients spec.W.ops o.Kv.shards o.Kv.replicas o.Kv.run.steps;
  Printf.printf "%-6s %10s %22s %22s\n" "shard" "ops/kstep" "get latency" "put latency";
  for s = 0 to o.Kv.shards - 1 do
    Printf.printf "%-6d %10.1f %22s %22s\n" s
      (Kv.shard_throughput o ~shard:s)
      (Format.asprintf "%a" H.pp_summary o.Kv.get_hist.(s))
      (Format.asprintf "%a" H.pp_summary o.Kv.put_hist.(s))
  done;
  let o_log = run ~local_reads:false in
  check "baseline completed" (o_log.Kv.completed = spec.W.ops);
  let p50 out =
    let h = Array.fold_left H.merge (H.create ()) out.Kv.get_hist in
    Option.value ~default:max_int (H.percentile h 50.0)
  in
  let local = p50 o and through_log = p50 o_log in
  Printf.printf "read p50: local-reads=%d through-log=%d\n" local through_log;
  check "local reads no slower than the log path" (local <= through_log);
  let params =
    { Scenario.default_params with n = 3; max_steps = Some 150_000 }
  in
  List.iter
    (fun nemesis ->
      let params = { params with Scenario.nemesis } in
      let r =
        Runner.sweep
          (module Mm_check.Scenario_kv)
          ~master_seed:1 ~budget:1 ~params ()
      in
      Format.printf "%a" Runner.pp_report r;
      check
        (if nemesis then "nemesis sweep clean" else "sweep clean")
        (r.Runner.violation = None))
    [ false; true ];
  let outage = 100_000 in
  let spec =
    {
      W.clients = 1000;
      ops = 12_000;
      mean_gap = 100.0;
      key_space = 1024;
      theta = 0.9;
      read_fraction = 0.2;
    }
  in
  let timeline =
    List.concat_map
      (fun base ->
        [
          { Nemesis.at = base + 100_000; duration = outage; fault = Nemesis.Restart [ 0 ] };
          {
            Nemesis.at = base + 350_000;
            duration = outage;
            fault = Nemesis.Partition [ [ 3 ]; [ 4; 5 ] ];
          };
        ])
      [ 0; 600_000 ]
  in
  let wl = W.gen (Mm_rng.Rng.create 7) spec ~replicas:3 in
  let o =
    Kv.run ~seed:7 ~max_steps:5_200_000 ~prepare:(Nemesis.install timeline)
      ~op_timeout:(3 * outage) ~shards:4 ~replicas:3 ~workload:wl ()
  in
  Printf.printf
    "kv failover: %d/%d completed, %d timeout(s), %d duplicate applies, %d \
     steps\n"
    o.Kv.completed spec.W.ops o.Kv.timeouts o.Kv.duplicate_applies
    o.Kv.run.steps;
  check "failover: every request completed or expired"
    (o.Kv.completed + o.Kv.timeouts = spec.W.ops);
  check "failover: shard logs agree" o.Kv.consistent;
  check "failover: acked puts durable" (Monitor.is_pass (Monitor.kv_durable o));
  if !failed then exit 1
