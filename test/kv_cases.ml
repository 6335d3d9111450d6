(* kv_cases — long KV runs pinned whole, shared by kv_digest.exe (the
   replay-digest rule) and test_kv.exe (the durability-monitor oracle).

   The golden corpus only runs kv checker trials of at most 24 ops, so
   nothing else pins long runs with retries, restarts, recoveries and
   expiries.  Each case is a scaled-down shape of a perfbench KV
   workload; [render] prints every field of a [Kv.outcome] that a
   replay could move, in a fixed order. *)

module Kv = Mm_kv.Kv
module W = Mm_kv.Workload
module H = Mm_kv.Histogram
module Nemesis = Mm_check.Nemesis
module Engine = Mm_sim.Engine
module Mem = Mm_mem.Mem

type case = {
  name : string;
  run : unit -> Kv.outcome;
}

let spec ~ops ~gap ~reads =
  {
    W.clients = 1000;
    ops;
    mean_gap = gap;
    key_space = 1024;
    theta = 0.9;
    read_fraction = reads;
  }

let case name ?(shards = 4) ?(timeline = []) ?op_timeout ?(local_reads = true)
    ?backend ~seed sp =
  let run () =
    let workload = W.gen (Mm_rng.Rng.create seed) sp ~replicas:3 in
    let span = int_of_float (float_of_int sp.W.ops *. sp.W.mean_gap) in
    Kv.run ~seed ~max_steps:(8 * span) ~prepare:(Nemesis.install timeline)
      ?op_timeout ~local_reads ?backend ~shards ~replicas:3 ~workload ()
  in
  { name; run }

let all =
  [
    (* Mostly leader-local reads, one request per 10 ticks. *)
    case "read-heavy" ~seed:5 (spec ~ops:2_000 ~gap:10.0 ~reads:0.9);
    (* Writes through ballots across a restart of shard 0's initial
       leader and a partition isolating shard 1's; the deadline is short
       enough that requests trapped in an outage expire. *)
    case "write-failover" ~seed:6
      ~timeline:
        (List.concat_map
           (fun base ->
             [
               {
                 Nemesis.at = base + 20_000;
                 duration = 30_000;
                 fault = Nemesis.Restart [ 0 ];
               };
               {
                 Nemesis.at = base + 90_000;
                 duration = 30_000;
                 fault = Nemesis.Partition [ [ 3 ]; [ 4; 5 ] ];
               };
             ])
           [ 0; 150_000 ])
      ~op_timeout:15_000
      (spec ~ops:3_000 ~gap:100.0 ~reads:0.2);
    case "log-reads" ~shards:2 ~local_reads:false ~seed:7
      (spec ~ops:600 ~gap:40.0 ~reads:0.5);
    (* A follower restart under quorum-emulated registers. *)
    case "emulated" ~shards:2 ~backend:Mem.Backend.Emulated ~seed:8
      ~timeline:
        [ { Nemesis.at = 3_000; duration = 2_000; fault = Nemesis.Restart [ 1 ] } ]
      (spec ~ops:300 ~gap:40.0 ~reads:0.6);
  ]

let render (o : Kv.outcome) =
  let b = Buffer.create 65536 in
  let p fmt = Printf.bprintf b fmt in
  p "shards=%d replicas=%d local_reads=%b op_timeout=%s\n" o.Kv.shards
    o.Kv.replicas o.Kv.local_reads
    (match o.Kv.op_timeout with None -> "none" | Some d -> string_of_int d);
  Array.iteri
    (fun id (rc : Kv.op_record) ->
      let rq = rc.Kv.req in
      p "op %d c%d.%d key=%d %s arrival=%d ingress=%d completion=%d \
         result=%d expired=%b\n"
        id rq.W.client rq.W.seq rq.W.key
        (match rq.W.op with W.Get -> "get" | W.Put v -> Printf.sprintf "put(%d)" v)
        rq.W.arrival rq.W.ingress rc.Kv.completion rc.Kv.result rc.Kv.expired)
    o.Kv.ops;
  Array.iteri
    (fun pid log ->
      p "log %d:" pid;
      List.iter (fun (s, id) -> p " %d=%d" s id) log;
      p "\n")
    o.Kv.logs;
  let hist kind s h =
    let q x = match H.percentile h x with None -> -1 | Some v -> v in
    p "%s[%d] n=%d p1=%d p50=%d p90=%d p99=%d p999=%d max=%d\n" kind s
      (H.count h) (q 1.0) (q 50.0) (q 90.0) (q 99.0) (q 99.9) (q 100.0)
  in
  Array.iteri (hist "get") o.Kv.get_hist;
  Array.iteri (hist "put") o.Kv.put_hist;
  p "completed=%d timeouts=%d duplicate_applies=%d consistent=%b\n"
    o.Kv.completed o.Kv.timeouts o.Kv.duplicate_applies o.Kv.consistent;
  let r = o.Kv.run in
  p "%s steps=%d sent=%d delivered=%d dropped=%d in_flight=%d %s blocked=%d \
     coin_flips=%d crashed=%s\n"
    (Format.asprintf "%a" Engine.pp_stop_reason r.Engine.reason)
    r.Engine.steps r.Engine.net.Mm_net.Network.sent
    r.Engine.net.Mm_net.Network.delivered r.Engine.net.Mm_net.Network.dropped
    r.Engine.net.Mm_net.Network.in_flight
    (Format.asprintf "%a" Mem.pp_counters r.Engine.mem)
    r.Engine.blocked r.Engine.coin_flips
    (String.concat ","
       (List.map string_of_bool (Array.to_list r.Engine.crashed)));
  p "mirrors: steps=%d sent=%d mem=%d blocked=%d\n" o.Kv.total_steps
    o.Kv.net.Mm_net.Network.sent
    (Mem.total_ops o.Kv.mem_total)
    o.Kv.mem_blocked;
  Buffer.contents b
