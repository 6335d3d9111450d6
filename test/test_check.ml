(* Tests for the Mm_check model-checking harness: the zone-test
   linearizability checker (against a Wing-Gong search oracle), the
   schedule explorers (determinism, replay, schedule recording), the
   delta-debugging shrinkers, and budgeted
   end-to-end sweeps over HBO / Omega / ABD — including the pinned-seed
   violation hunt on a disconnected graph and its bit-identical replay. *)

module Lin = Mm_check.Lin
module Explore = Mm_check.Explore
module Shrink = Mm_check.Shrink
module Runner = Mm_check.Runner
module Scenario = Mm_check.Scenario
module Registry = Mm_check.Registry
module Sched = Mm_sim.Sched
module Engine = Mm_sim.Engine
module Trace = Mm_sim.Trace
module Proc = Mm_sim.Proc
module B = Mm_graph.Builders
module Net = Mm_net.Network
module Id = Mm_core.Id
module Omega = Mm_election.Omega
module Nemesis = Mm_check.Nemesis
module Monitor = Mm_check.Monitor
module Config = Mm_check.Config
module Rng = Mm_rng.Rng

type Mm_net.Message.payload += Ping

(* --- Lin: the zone test, against a Wing-Gong oracle --- *)

let ev proc op start_t finish_t = { Lin.proc; op; start_t; finish_t }

(* The Wing-Gong search, the checker [Lin.check] replaced, kept as the
   oracle the zone test is held to.  It needs no unique values but is
   exponential and bitmask-indexed: at most 62 events.  Repeatedly pick
   a minimal pending op (nothing pending finished strictly before it
   started), apply it to the register, recurse; memoize dead ends on
   (remaining mask, register value). *)
let wing_gong ?(init = 0) events =
  let evs = Array.of_list events in
  let m = Array.length evs in
  if m > 62 then invalid_arg "wing_gong: history longer than 62 events";
  let failed : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let rec go mask value =
    mask = 0
    || (not (Hashtbl.mem failed (mask, value)))
       &&
       let ok =
         (* min-finish over the whole mask works because an op cannot
            finish before its own start *)
         let min_fin = ref max_int in
         for i = 0 to m - 1 do
           if mask land (1 lsl i) <> 0 && evs.(i).Lin.finish_t < !min_fin then
             min_fin := evs.(i).Lin.finish_t
         done;
         let rec try_at i =
           i < m
           && ((mask land (1 lsl i) <> 0
               && evs.(i).Lin.start_t <= !min_fin
               &&
               let rest = mask lxor (1 lsl i) in
               match evs.(i).Lin.op with
               | Lin.Write v -> go rest v
               | Lin.Read v -> v = value && go rest value)
              || try_at (i + 1))
         in
         try_at 0
       in
       if not ok then Hashtbl.replace failed (mask, value) ();
       ok
  in
  go ((1 lsl m) - 1) init

let test_lin_sequential () =
  Alcotest.(check bool) "write then read" true
    (Lin.check [ ev 0 (Lin.Write 1) 0 1; ev 1 (Lin.Read 1) 2 3 ]);
  Alcotest.(check bool) "read of initial value" true
    (Lin.check [ ev 0 (Lin.Read 0) 0 1; ev 1 (Lin.Write 1) 2 3 ]);
  Alcotest.(check bool) "empty history" true (Lin.check [])

let test_lin_stale_read_rejected () =
  Alcotest.(check bool) "read past an intervening write" false
    (Lin.check
       [
         ev 0 (Lin.Write 1) 0 1;
         ev 0 (Lin.Write 2) 2 3;
         ev 1 (Lin.Read 1) 4 5;
       ]);
  Alcotest.(check bool) "read of a value never written" false
    (Lin.check [ ev 0 (Lin.Write 1) 0 5; ev 1 (Lin.Read 2) 1 3 ])

let test_lin_concurrency_allows_reorder () =
  (* The read overlaps the write, so it may linearize before it. *)
  Alcotest.(check bool) "overlapping read of old value" true
    (Lin.check [ ev 0 (Lin.Write 7) 0 10; ev 1 (Lin.Read 0) 2 3 ]);
  (* Two reads bracketing each other pin the order: R(2) after W2 then
     R(1) would need W1 after W2 — but R(2) already saw W2 after W1. *)
  Alcotest.(check bool) "contradictory read pair" false
    (Lin.check
       [
         ev 0 (Lin.Write 1) 0 1;
         ev 0 (Lin.Write 2) 2 3;
         ev 1 (Lin.Read 2) 4 5;
         ev 1 (Lin.Read 1) 6 7;
       ])

let test_lin_validation () =
  let rejects label events =
    Alcotest.(check bool) label true
      (try
         ignore (Lin.check events);
         false
       with Invalid_argument _ -> true)
  in
  rejects "inverted interval rejected" [ ev 0 (Lin.Read 0) 5 1 ];
  rejects "duplicate write value rejected"
    [ ev 0 (Lin.Write 3) 0 1; ev 1 (Lin.Write 3) 2 3 ];
  rejects "write of init rejected" [ ev 0 (Lin.Write 0) 0 1 ];
  let w = ev 0 (Lin.Write 4) 0 1 in
  rejects "one write listed twice rejected" [ w; w ]

(* 50 writes and 50 reads, each read overlapping its own write and the
   next one: past the 62 events the oracle can take, and linearizable.
   One late read of the first value is stale. *)
let test_lin_long_history () =
  let history =
    List.concat
      (List.init 50 (fun i ->
           [
             ev 0 (Lin.Write (i + 1)) (10 * i) ((10 * i) + 6);
             ev 1 (Lin.Read (i + 1)) ((10 * i) + 3) ((10 * i) + 12);
           ]))
  in
  Alcotest.(check int) "100 events" 100 (List.length history);
  Alcotest.(check bool) "linearizable" true (Lin.check history);
  let stale =
    List.map
      (fun e ->
        if e.Lin.start_t = 493 then { e with Lin.op = Lin.Read 1 } else e)
      history
  in
  Alcotest.(check bool) "one stale read rejected" false (Lin.check stale)

(* Histories of up to 14 events with start times in a span of 1-6 steps
   and durations of 0-5, so timestamps tie often: the strict precedence
   [a.finish_t < b.start_t] is where a boundary mistake would show.
   Writes carry unique values 1..w; a read returns any of them or the
   initial 0, so both verdicts are common. *)
let gen_history =
  let open QCheck.Gen in
  let* span = int_range 1 6 in
  let* m = int_range 0 14 in
  let* shapes =
    list_repeat m (triple (int_bound (span - 1)) (int_bound 5) bool)
  in
  let writes = List.length (List.filter (fun (_, _, w) -> w) shapes) in
  let* picks = list_repeat m (int_bound writes) in
  let next = ref 0 in
  return
    (List.mapi
       (fun i ((start_t, dur, is_write), pick) ->
         let op =
           if is_write then begin
             incr next;
             Lin.Write !next
           end
           else Lin.Read pick
         in
         ev i op start_t (start_t + dur))
       (List.combine shapes picks))

let print_history events =
  String.concat " "
    (List.map
       (fun e ->
         Printf.sprintf "%s[%d,%d]"
           (match e.Lin.op with
           | Lin.Write v -> Printf.sprintf "W%d" v
           | Lin.Read v -> Printf.sprintf "R%d" v)
           e.Lin.start_t e.Lin.finish_t)
       events)

let prop_lin_agrees_with_wing_gong =
  QCheck.Test.make ~count:100_000
    ~name:"zone test = Wing-Gong"
    (QCheck.make ~print:print_history gen_history)
    (fun h -> Lin.check h = wing_gong h)

(* --- Explore: PCT adversary and replay --- *)

let view ?now runnable = Sched.make_view ?now runnable

let picks_of sched ~steps ~runnable =
  let rng = Mm_rng.Rng.create 99 in
  List.init steps (fun i -> Sched.pick sched rng (view ~now:i runnable))

let test_pct_deterministic () =
  let mk () = Explore.pct ~seed:5 ~n:4 ~k:3 ~depth:50 in
  Alcotest.(check (list int)) "same seed, same schedule"
    (picks_of (mk ()) ~steps:60 ~runnable:[ 0; 1; 2; 3 ])
    (picks_of (mk ()) ~steps:60 ~runnable:[ 0; 1; 2; 3 ])

let test_pct_picks_runnable () =
  let s = Explore.pct ~seed:11 ~n:5 ~k:4 ~depth:40 in
  let rng = Mm_rng.Rng.create 1 in
  for i = 0 to 80 do
    let runnable = if i mod 3 = 0 then [ 1; 4 ] else [ 0; 2; 3 ] in
    let p = Sched.pick s rng (view ~now:i runnable) in
    Alcotest.(check bool) "member of runnable" true (List.mem p runnable)
  done

let test_pct_validation () =
  Alcotest.(check bool) "k = 0 rejected" true
    (try
       ignore (Explore.pct ~seed:1 ~n:3 ~k:0 ~depth:10);
       false
     with Invalid_argument _ -> true)

(* PCT pick pins.  Engines of n processes run under [Explore.pct] with
   their schedule recorded.  Every process yields a pid-dependent number
   of times and finishes; an eighth of them crash and another eighth are
   frozen for a window and thawed, so the runnable set changes all run
   long.  The MD5 of each recorded schedule pins every PCT pick,
   including, from n = 26 on, how the float weight sums round. *)
let pct_schedule ~n ~k ~seed =
  let adv = Rng.create ((seed * 7919) + n) in
  let work pid = 3 + (((pid * 7) + seed) mod 9) in
  let depth = List.fold_left ( + ) 0 (List.init n work) in
  let eng =
    Engine.create ~seed
      ~sched:(Explore.pct ~seed ~n ~k ~depth)
      ~domain:(Mm_core.Domain.isolated n) ~link:Net.Reliable ~n ()
  in
  Engine.record_schedule eng;
  for pid = 0 to n - 1 do
    Engine.spawn eng (Id.of_int pid) (fun () ->
        for _ = 1 to work pid do
          Proc.yield ()
        done)
  done;
  Rng.shuffle adv (List.init n Fun.id)
  |> List.filteri (fun i _ -> i < max 1 (n / 8))
  |> List.iter (fun pid -> Engine.crash_at eng (Id.of_int pid) (Rng.int adv depth));
  for _ = 1 to max 1 (n / 8) do
    let pid = Id.of_int (Rng.int adv n) and s = Rng.int adv depth in
    Engine.at eng ~step:s (fun e ->
        if Engine.status_of e pid <> Engine.Crashed then Engine.freeze e pid);
    Engine.at eng ~step:(s + 1 + Rng.int adv 50) (fun e -> Engine.thaw e pid)
  done;
  ignore (Engine.run eng ~max_steps:(4 * depth) ());
  let buf = Buffer.create 4096 in
  List.iter (fun p -> Printf.bprintf buf "%d " p) (Engine.schedule eng);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pct_pin_cases =
  List.concat_map
    (fun n -> List.map (fun k -> (n, k)) [ 1; 3; 5 ])
    [ 3; 6; 64; 256; 512 ]

let pct_pin_expected =
  [
    (* n=3   k=1 *) "656ee717727ccdd10eef7ba5ccedd4dd";
    (* n=3   k=3 *) "a1b4704cef1e5e8db29df2588b5914d8";
    (* n=3   k=5 *) "b1270d65c39e8615d24a6bf2029c5953";
    (* n=6   k=1 *) "5a3ca862feea6d6a96a46c8c92a386ec";
    (* n=6   k=3 *) "6cc01f221122a70718ca98ba2aa72514";
    (* n=6   k=5 *) "67a1c6c75c8221146a999913ee177e82";
    (* n=64  k=1 *) "126d625c71d29ed9632f3cd6c5547e3c";
    (* n=64  k=3 *) "f6c62b4f78deeb8ed3fd51181fcfa31c";
    (* n=64  k=5 *) "da58f18f03e5403c357be51ee0d19829";
    (* n=256 k=1 *) "2aca120dce38db58c720716730345863";
    (* n=256 k=3 *) "e069bd3d5e7d1e6a8a618367fb106af6";
    (* n=256 k=5 *) "8344e141819b850543b0e3884b056df9";
    (* n=512 k=1 *) "d6f3ffc8f0364b9e4b7e2df1aae13682";
    (* n=512 k=3 *) "ff03a2f22e6f359f93fc59b80c0e2a35";
    (* n=512 k=5 *) "fd9718ecf7118ad8bb174d639506367a";
  ]

let test_pct_pins () =
  List.iter2
    (fun (n, k) expected ->
      Alcotest.(check string)
        (Printf.sprintf "n=%d k=%d" n k)
        expected
        (pct_schedule ~n ~k ~seed:(n + k)))
    pct_pin_cases pct_pin_expected

(* Past n = 512 the weight 4^rank used to overflow to infinity, and
   every pick fell through to the highest runnable pid.  The drawn
   top-priority pid (the last of the seed's shuffled order) must get
   about three picks in four, as it does at smaller n. *)
let test_pct_large_n () =
  List.iter
    (fun n ->
      let seed = 17 in
      let order = Array.init n Fun.id in
      Rng.shuffle_in_place (Rng.create seed) order;
      let top = order.(n - 1) in
      Alcotest.(check bool) "seed draws a top pid below n - 1" true (top < n - 1);
      let s = Explore.pct ~seed ~n ~k:1 ~depth:100 in
      let v = view (List.init n Fun.id) in
      let rng = Rng.create 1 in
      let counts = Array.make n 0 in
      let picks = 20_000 in
      for i = 1 to picks do
        v.Sched.now <- i;
        let p = Sched.pick s rng v in
        counts.(p) <- counts.(p) + 1
      done;
      let most = ref 0 in
      Array.iteri (fun p c -> if c > counts.(!most) then most := p) counts;
      Alcotest.(check int) (Printf.sprintf "n=%d: top pid picked most" n) top
        !most;
      let share = float_of_int counts.(top) /. float_of_int picks in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: top share %.3f near 3/4" n share)
        true
        (share > 0.7 && share < 0.8))
    [ 513; 600; 1000 ]

let test_pct_pid_out_of_range () =
  let s = Explore.pct ~seed:1 ~n:3 ~k:1 ~depth:10 in
  Alcotest.check_raises "pid 3 at n = 3"
    (Invalid_argument "Explore.pct: runnable pid 3 outside [0, 3)") (fun () ->
      ignore (Sched.pick s (Rng.create 1) (view [ 0; 1; 3 ])))

let test_replay_follows_list () =
  let s = Explore.replay [ 2; 0; 2; 1 ] in
  let rng = Mm_rng.Rng.create 1 in
  let got =
    List.init 5 (fun _ -> Sched.pick s rng (view [ 0; 1; 2 ]))
  in
  (* exhausted list falls back to the lowest runnable pid *)
  Alcotest.(check (list int)) "replayed then fallback" [ 2; 0; 2; 1; 0 ] got

let test_gen_crashes_respects_budget () =
  let rng = Mm_rng.Rng.create 3 in
  for _ = 1 to 50 do
    let cs =
      Explore.gen_crashes rng ~n:6 ~avoid:[ 0 ] ~max_crashes:3 ~max_step:100
    in
    Alcotest.(check bool) "size within budget" true (List.length cs <= 3);
    let pids = List.map fst cs in
    Alcotest.(check bool) "avoid respected" false (List.mem 0 pids);
    Alcotest.(check bool) "distinct victims" true
      (List.length (List.sort_uniq compare pids) = List.length pids);
    List.iter
      (fun (_, step) ->
        Alcotest.(check bool) "step in window" true (step >= 0 && step <= 100))
      cs
  done

(* --- Engine schedule recording + replay --- *)

let run_pingers sched =
  let eng =
    Engine.create ~seed:7 ~sched ~trace_capacity:256
      ~domain:(Mm_core.Domain.full 3) ~link:Net.Reliable ~n:3 ()
  in
  Engine.record_schedule eng;
  for pid = 0 to 2 do
    Engine.spawn eng (Id.of_int pid) (fun () ->
        for _ = 1 to 5 do
          Proc.send (Id.of_int ((pid + 1) mod 3)) Ping;
          ignore (Proc.receive ());
          Proc.yield ()
        done)
  done;
  ignore (Engine.run eng ~max_steps:400 ());
  let trace =
    match Engine.trace eng with None -> [] | Some tr -> Trace.to_list tr
  in
  (Engine.schedule eng, trace)

let test_schedule_record_and_replay () =
  let sched1, trace1 = run_pingers (Explore.random_walk ()) in
  Alcotest.(check bool) "schedule recorded" true (List.length sched1 > 10);
  let sched2, trace2 = run_pingers (Explore.replay sched1) in
  Alcotest.(check (list int)) "replay follows the recorded schedule" sched1
    sched2;
  Alcotest.(check int) "identical trace length" (List.length trace1)
    (List.length trace2);
  List.iter2
    (fun (a : Trace.event) (b : Trace.event) ->
      Alcotest.(check bool) "identical trace events" true
        (a.Trace.step = b.Trace.step && a.Trace.pid = b.Trace.pid
        && a.Trace.op = b.Trace.op))
    trace1 trace2

let test_network_events_traced () =
  let eng =
    Engine.create ~seed:21 ~trace_capacity:4096
      ~domain:(Mm_core.Domain.full 2) ~link:(Net.Fair_lossy 0.5) ~n:2 ()
  in
  for pid = 0 to 1 do
    Engine.spawn eng (Id.of_int pid) (fun () ->
        for _ = 1 to 40 do
          Proc.send (Id.of_int (1 - pid)) Ping;
          ignore (Proc.receive ());
          Proc.yield ()
        done)
  done;
  ignore (Engine.run eng ~max_steps:2_000 ());
  let ops =
    match Engine.trace eng with
    | None -> []
    | Some tr -> List.map (fun e -> e.Trace.op) (Trace.to_list tr)
  in
  Alcotest.(check bool) "some drops traced" true
    (List.exists (function Trace.Dropped -> true | _ -> false) ops);
  Alcotest.(check bool) "some deliveries traced" true
    (List.exists (function Trace.Delivered _ -> true | _ -> false) ops)

(* --- Shrink --- *)

let test_shrink_list () =
  let calls = ref 0 in
  let still_fails xs =
    incr calls;
    List.mem 2 xs && List.mem 5 xs
  in
  Alcotest.(check (list int)) "keeps exactly the failing core" [ 2; 5 ]
    (Shrink.list_min ~still_fails [ 1; 2; 3; 5; 8 ]);
  Alcotest.(check bool) "oracle consulted" true (!calls > 0)

let test_shrink_list_already_minimal () =
  Alcotest.(check (list int)) "singleton kept" [ 4 ]
    (Shrink.list_min ~still_fails:(fun xs -> xs = [ 4 ]) [ 4 ])

let test_shrink_int () =
  Alcotest.(check int) "finds the threshold" 3
    (Shrink.int_min ~still_fails:(fun v -> v >= 3) ~lo:0 7);
  Alcotest.(check int) "nothing smaller fails" 7
    (Shrink.int_min ~still_fails:(fun v -> v = 7) ~lo:0 7)

(* --- Pool: deterministic parallel search --- *)

(* The first hit alone, with no per-worker context. *)
let find_first ?jobs ?chunk ~budget f =
  (Mm_check.Pool.find_first_stats ?jobs ?chunk ~init:ignore ~budget (fun () i -> f i))
    .Mm_check.Pool.found

let test_pool_lowest_index_wins () =
  (* Many indices match; the pool must report the lowest, not the first
     to complete, at every jobs setting. *)
  let f i = i mod 7 = 3 in
  List.iter
    (fun jobs ->
      Alcotest.(check (option int))
        (Printf.sprintf "jobs=%d" jobs)
        (Some 3)
        (find_first ~jobs ~budget:100 f))
    [ 1; 2; 4; 8 ]

let test_pool_no_hit_and_edges () =
  Alcotest.(check (option int)) "no hit" None
    (find_first ~jobs:4 ~budget:50 (fun _ -> false));
  Alcotest.(check (option int)) "empty budget" None
    (find_first ~jobs:4 ~budget:0 (fun _ -> true));
  Alcotest.(check (option int)) "jobs > budget" (Some 0)
    (find_first ~jobs:16 ~budget:2 (fun i -> i = 0))

let test_pool_propagates_exception () =
  Alcotest.(check bool) "worker exception reraised" true
    (try
       ignore
         (find_first ~jobs:4 ~budget:40 (fun i ->
              if i = 17 then failwith "boom" else false));
       false
     with Failure m -> m = "boom")

let test_pool_validates_jobs_and_chunk () =
  let raises name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  raises "jobs = 0" (fun () ->
      find_first ~jobs:0 ~budget:4 (fun _ -> false));
  raises "jobs negative" (fun () ->
      find_first ~jobs:(-3) ~budget:4 (fun _ -> false));
  raises "chunk = 0" (fun () ->
      find_first ~jobs:2 ~chunk:0 ~budget:4 (fun _ -> false));
  raises "chunk = 0, sequential too" (fun () ->
      find_first ~jobs:1 ~chunk:0 ~budget:4 (fun _ -> false));
  raises "sweep jobs = 0" (fun () ->
      match Registry.find "abd" with
      | Some sc ->
        Runner.sweep sc ~budget:1 ~jobs:0 ~params:Scenario.default_params ()
      | None -> Alcotest.fail "abd not registered");
  (* jobs >= 1 with an empty budget is a no-hit, not an error *)
  Alcotest.(check (option int)) "budget 0" None
    (find_first ~jobs:3 ~budget:0 (fun _ -> true))

let test_pool_chunked_claiming_deterministic () =
  (* Hits at 17 and 63: whatever the chunk size — finer or coarser than
     the budget, or the adaptive default — real worker domains must
     report the lowest hit. *)
  let f i = i = 17 || i = 63 in
  List.iter
    (fun (jobs, chunk) ->
      Alcotest.(check (option int))
        (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
        (Some 17)
        (find_first ~jobs ~chunk ~budget:100 f))
    [ (2, 1); (2, 7); (4, 16); (8, 64); (3, 200) ]

let test_pool_stats_accounting () =
  (* A clean sweep claims every index exactly once, so the per-worker
     [claimed] counts partition the budget however the jobs/chunk split
     interleaves, and on a hit-free run every claimed index was also
     evaluated. *)
  List.iter
    (fun (jobs, chunk) ->
      let r =
        Mm_check.Pool.find_first_stats ~jobs ~chunk
          ~init:(fun wid -> wid)
          ~budget:100
          (fun _ _ -> false)
      in
      let name = Printf.sprintf "jobs=%d chunk=%d" jobs chunk in
      Alcotest.(check (option int)) (name ^ ": no hit") None r.Mm_check.Pool.found;
      Alcotest.(check int)
        (name ^ ": claimed partitions the budget")
        100
        (Array.fold_left ( + ) 0 r.Mm_check.Pool.claimed);
      Alcotest.(check int)
        (name ^ ": evaluated = claimed, hit-free")
        100
        (Array.fold_left ( + ) 0 r.Mm_check.Pool.evaluated);
      Alcotest.(check int)
        (name ^ ": one stat slot per context")
        (Array.length r.Mm_check.Pool.ctxs)
        (Array.length r.Mm_check.Pool.claimed))
    [ (1, 10); (2, 7); (4, 16); (8, 1) ]

let test_pool_jobs_capped_by_chunk_count () =
  (* Satellite of the domain-local engine: a coarse chunk must collapse
     the worker count instead of spawning domains with nothing to claim.
     budget 8 at chunk 64 is a single chunk -> exactly one worker (the
     calling domain), and the sequential fast path at that. *)
  let r =
    Mm_check.Pool.find_first_stats ~jobs:8 ~chunk:64
      ~init:(fun wid -> wid)
      ~budget:8
      (fun _ _ -> false)
  in
  Alcotest.(check int) "one chunk -> one worker" 1
    (Array.length r.Mm_check.Pool.ctxs);
  Alcotest.(check int) "that worker claimed everything" 8
    r.Mm_check.Pool.claimed.(0);
  (* budget 8 at chunk 3 is three chunks -> exactly three workers *)
  let r =
    Mm_check.Pool.find_first_stats ~jobs:8 ~chunk:3
      ~init:(fun wid -> wid)
      ~budget:8
      (fun _ _ -> false)
  in
  Alcotest.(check int) "three chunks -> three workers" 3
    (Array.length r.Mm_check.Pool.ctxs);
  Alcotest.(check int) "still the whole budget" 8
    (Array.fold_left ( + ) 0 r.Mm_check.Pool.claimed)

(* --- Runner: end-to-end sweeps (kept small; see the @check alias) --- *)

let hbo = (module Mm_check.Scenario_hbo : Scenario.S)
let omega = (module Mm_check.Scenario_omega : Scenario.S)
let abd = (module Mm_check.Scenario_abd : Scenario.S)

let hbo_params ?max_crashes ?(expect_stall = false) graph =
  { Scenario.default_params with graph = Some graph; max_crashes; expect_stall }

let omega_params =
  {
    Scenario.default_params with
    n = 3;
    variant = Omega.Reliable;
    crash_window = Some 4_000;
    warmup = Some 30_000;
    window = Some 5_000;
  }

let abd_params = { Scenario.default_params with n = 4 }

let test_hbo_clique_within_bound_clean () =
  let report =
    Runner.sweep hbo ~budget:30 ~params:(hbo_params (B.complete 4)) ()
  in
  (match report.Runner.violation with
  | None -> ()
  | Some cx ->
    Alcotest.failf "unexpected %s violation: %s" cx.Runner.property
      cx.Runner.detail);
  Alcotest.(check int) "all trials ran" 30 report.Runner.trials_run

let test_hbo_past_bound_finds_stall_and_replays () =
  (* Two disjoint K3s: f* = 2 (Thm 4.3).  A budget of 3 crashes lets the
     sweep draw clique-killing crash sets, which break the represented
     majority and stall consensus — a termination violation. *)
  let graph = B.disjoint_cliques ~cliques:2 ~k:3 in
  let params = hbo_params ~max_crashes:3 graph in
  let report = Runner.sweep hbo ~master_seed:1 ~budget:200 ~params () in
  match report.Runner.violation with
  | None -> Alcotest.fail "expected a termination violation past the bound"
  | Some cx ->
    Alcotest.(check string) "property" "termination" cx.Runner.property;
    Alcotest.(check bool) "trace captured" true (cx.Runner.trace <> []);
    (* replaying the reported seed must reproduce the identical run *)
    let replayed =
      Runner.replay hbo ~params ~trial_seed:cx.Runner.trial_seed ()
    in
    (match replayed.Runner.violation with
    | None -> Alcotest.fail "replay lost the violation"
    | Some cx' ->
      Alcotest.(check string) "same property" cx.Runner.property
        cx'.Runner.property;
      Alcotest.(check string) "same detail" cx.Runner.detail cx'.Runner.detail;
      Alcotest.(check bool) "identical config" true
        (cx.Runner.config = cx'.Runner.config);
      Alcotest.(check bool) "identical trailing trace" true
        (cx.Runner.trace = cx'.Runner.trace))

let test_hbo_expect_stall_on_sm_cut () =
  (* Thm 4.4 scenario on the disconnected graph: crash the (empty) cut
     boundary, partition S from T — consensus must NOT terminate. *)
  let graph = B.disjoint_cliques ~cliques:2 ~k:2 in
  let report =
    Runner.sweep hbo ~budget:5 ~params:(hbo_params ~expect_stall:true graph) ()
  in
  match report.Runner.violation with
  | None -> ()
  | Some cx ->
    Alcotest.failf "consensus terminated despite the SM-cut: %s"
      cx.Runner.detail

let test_abd_sweep_clean () =
  let report = Runner.sweep abd ~budget:40 ~params:abd_params () in
  match report.Runner.violation with
  | None -> ()
  | Some cx ->
    Alcotest.failf "unexpected %s violation: %s" cx.Runner.property
      cx.Runner.detail

let test_omega_sweep_clean () =
  let report = Runner.sweep omega ~budget:3 ~params:omega_params () in
  match report.Runner.violation with
  | None -> ()
  | Some cx ->
    Alcotest.failf "unexpected %s violation: %s" cx.Runner.property
      cx.Runner.detail

let test_report_pp_mentions_replay_seed () =
  let graph = B.disjoint_cliques ~cliques:2 ~k:3 in
  let report =
    Runner.sweep hbo ~master_seed:1 ~budget:200
      ~params:(hbo_params ~max_crashes:3 graph) ()
  in
  match report.Runner.violation with
  | None -> Alcotest.fail "expected a violation"
  | Some cx ->
    let s = Format.asprintf "%a" Runner.pp_report report in
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i =
        i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "names the property" true
      (contains s cx.Runner.property);
    Alcotest.(check bool) "prints the replay seed" true
      (contains s (string_of_int cx.Runner.trial_seed))

(* --- Parallel sweeps: jobs must not change the report --- *)

let check_same_report name (r1 : Runner.report) (r4 : Runner.report) =
  Alcotest.(check string) (name ^ ": algo") r1.Runner.algo r4.Runner.algo;
  Alcotest.(check int) (name ^ ": trials_run") r1.Runner.trials_run
    r4.Runner.trials_run;
  (match (r1.Runner.violation, r4.Runner.violation) with
  | None, None -> ()
  | Some a, Some b ->
    Alcotest.(check int) (name ^ ": trial") a.Runner.trial b.Runner.trial;
    Alcotest.(check int) (name ^ ": seed") a.Runner.trial_seed
      b.Runner.trial_seed;
    Alcotest.(check string) (name ^ ": property") a.Runner.property
      b.Runner.property;
    Alcotest.(check string) (name ^ ": detail") a.Runner.detail
      b.Runner.detail;
    Alcotest.(check bool) (name ^ ": shrunk") true
      (a.Runner.shrunk = b.Runner.shrunk)
  | _ -> Alcotest.failf "%s: one sweep found a violation, the other not" name);
  (* Belt and braces: the whole report, traces included. *)
  Alcotest.(check bool) (name ^ ": bit-identical") true (r1 = r4)

(* --- Registry: every scenario through the one generic engine --- *)

let scenario name =
  match Registry.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s not registered" name

(* Small enough that a 2-trial sweep of every scenario stays quick. *)
let smoke_params =
  {
    Scenario.default_params with
    graph = Some (B.complete 4);
    n = 4;
    max_steps = Some 150_000;
    crash_window = Some 5_000;
    warmup = Some 40_000;
    window = Some 8_000;
  }

let test_registry_names () =
  Alcotest.(check (list string)) "registration order"
    [ "hbo"; "omega"; "abd"; "paxos"; "mutex"; "smr"; "kv" ]
    Registry.names;
  List.iter
    (fun name ->
      match Registry.find name with
      | Some (module S : Scenario.S) ->
        Alcotest.(check string) "find returns the named scenario" name S.name
      | None -> Alcotest.failf "registry lost %s" name)
    Registry.names;
  Alcotest.(check bool) "unknown name" true (Registry.find "nope" = None)

(* A starved hunt's trial runs 60-80 steps, so what a trial costs before
   its first step (engine, registers, names) sets the hunt's rate.  At
   [max_steps = 1] an execution is nearly all setup; at n = 6 it stays
   under 3 000 minor words (register names without Printf, one
   validation per peer set). *)
let test_trial_setup_bound () =
  List.iter
    (fun name ->
      let (module Sc : Scenario.S) = scenario name in
      let cfg =
        Sc.cfg_of_params { Scenario.default_params with max_steps = Some 1 }
      in
      let trials = List.init 50 (fun s -> Sc.gen cfg (Rng.create (s + 1))) in
      ignore (Sc.execute cfg (List.hd trials));
      let before = Gc.minor_words () in
      List.iter (fun t -> ignore (Sys.opaque_identity (Sc.execute cfg t))) trials;
      let per_trial = (Gc.minor_words () -. before) /. 50.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words per trial at max_steps 1 (<= 3000)"
           name per_trial)
        true (per_trial <= 3000.0))
    [ "paxos"; "mutex"; "smr" ]

let clean_sweep ?(master_seed = 1) name ~budget ~params =
  let report = Runner.sweep (scenario name) ~master_seed ~budget ~params () in
  (match report.Runner.violation with
  | None -> ()
  | Some cx ->
    Alcotest.failf "%s: unexpected %s violation: %s" name cx.Runner.property
      cx.Runner.detail);
  Alcotest.(check int) (name ^ ": all trials ran") budget
    report.Runner.trials_run

let test_paxos_sweep_clean () =
  clean_sweep "paxos" ~budget:10
    ~params:{ Scenario.default_params with n = 4 }

let test_mutex_sweep_clean () =
  clean_sweep "mutex" ~budget:10
    ~params:{ Scenario.default_params with n = 4 }

let test_smr_sweep_clean () =
  clean_sweep "smr" ~budget:6 ~params:{ Scenario.default_params with n = 4 }

(* Starve the liveness monitors with a tiny step budget, then replay the
   reported trial seed: property, detail, config, and trace must all
   reproduce byte-for-byte. *)
let find_violation_and_replay name ~params =
  let sc = scenario name in
  let report = Runner.sweep sc ~master_seed:1 ~budget:40 ~params () in
  match report.Runner.violation with
  | None ->
    Alcotest.failf "%s: expected a liveness violation under the tiny budget"
      name
  | Some cx -> (
    let replayed =
      Runner.replay sc ~params ~trial_seed:cx.Runner.trial_seed ()
    in
    match replayed.Runner.violation with
    | None -> Alcotest.failf "%s: replay lost the violation" name
    | Some cx' ->
      Alcotest.(check string) (name ^ ": property") cx.Runner.property
        cx'.Runner.property;
      Alcotest.(check string) (name ^ ": detail") cx.Runner.detail
        cx'.Runner.detail;
      Alcotest.(check bool) (name ^ ": identical config") true
        (cx.Runner.config = cx'.Runner.config);
      Alcotest.(check bool) (name ^ ": identical trace") true
        (cx.Runner.trace = cx'.Runner.trace))

let test_paxos_violation_replays () =
  find_violation_and_replay "paxos"
    ~params:
      {
        Scenario.default_params with
        n = 4;
        max_crashes = Some 0;
        max_steps = Some 60;
      }

let test_mutex_violation_replays () =
  find_violation_and_replay "mutex"
    ~params:{ Scenario.default_params with n = 4; max_steps = Some 60 }

let test_smr_violation_replays () =
  find_violation_and_replay "smr"
    ~params:
      {
        Scenario.default_params with
        n = 4;
        max_crashes = Some 0;
        max_steps = Some 80;
      }

let test_hbo_jobs_deterministic () =
  (* The past-the-bound hunt from above: a violation exists, and every
     jobs setting — exercising different chunk-claiming interleavings —
     must report the identical trial/seed/shrunk config as jobs=1. *)
  let graph = B.disjoint_cliques ~cliques:2 ~k:3 in
  let sweep jobs =
    Runner.sweep hbo ~master_seed:1 ~budget:200 ~jobs
      ~params:(hbo_params ~max_crashes:3 graph) ()
  in
  let r1 = sweep 1 in
  Alcotest.(check bool) "violation found" true (r1.Runner.violation <> None);
  List.iter
    (fun jobs ->
      check_same_report (Printf.sprintf "hbo jobs=%d" jobs) r1 (sweep jobs))
    [ 2; 4; 8 ]

let test_omega_jobs_deterministic () =
  let sweep jobs = Runner.sweep omega ~budget:4 ~jobs ~params:omega_params () in
  check_same_report "omega" (sweep 1) (sweep 4)

let test_abd_jobs_deterministic () =
  let sweep jobs = Runner.sweep abd ~budget:40 ~jobs ~params:abd_params () in
  check_same_report "abd" (sweep 1) (sweep 4)

let test_registry_jobs_deterministic () =
  (* Every registered scenario, driven generically: a small sweep at any
     jobs setting must produce byte-identical reports.  jobs=8 exceeds
     the budget, so it also exercises the jobs-capped-at-budget path. *)
  List.iter
    (fun ((module S : Scenario.S) as sc) ->
      let sweep jobs =
        Runner.sweep sc ~master_seed:5 ~budget:2 ~jobs ~params:smoke_params ()
      in
      let r1 = sweep 1 in
      List.iter
        (fun jobs ->
          check_same_report (Printf.sprintf "%s jobs=%d" S.name jobs) r1
            (sweep jobs))
        [ 2; 8 ])
    Registry.all

(* --- Memory backends: the Scenario x backend matrix --- *)

let emulated_params =
  { smoke_params with Scenario.backend = Mm_mem.Mem.Backend.Emulated }

let test_cap_crashes () =
  let cap = Mm_check.Fault_plan.cap_crashes in
  Alcotest.(check int) "native uncapped" 3
    (cap Mm_mem.Mem.Backend.Native ~n:4 ~native_default:3);
  Alcotest.(check int) "emulated n=4 capped to 1" 1
    (cap Mm_mem.Mem.Backend.Emulated ~n:4 ~native_default:3);
  Alcotest.(check int) "emulated n=5 capped to 2" 2
    (cap Mm_mem.Mem.Backend.Emulated ~n:5 ~native_default:4);
  Alcotest.(check int) "emulated never negative" 0
    (cap Mm_mem.Mem.Backend.Emulated ~n:1 ~native_default:0);
  Alcotest.(check int) "smaller native default wins" 1
    (cap Mm_mem.Mem.Backend.Emulated ~n:9 ~native_default:1)

let test_registry_emulated_sweeps_clean () =
  (* Every registered scenario sweeps clean on the emulated backend with
     its default (minority-capped) crash budget: zero new algorithm
     code, same monitors plus the resilience bound. *)
  List.iter
    (fun (module S : Scenario.S) ->
      clean_sweep S.name ~budget:2 ~params:emulated_params)
    Registry.all

let test_registry_emulated_jobs_deterministic () =
  (* The backend threads through the parallel sweep unchanged: reports
     stay bit-identical at every jobs setting. *)
  List.iter
    (fun ((module S : Scenario.S) as sc) ->
      let sweep jobs =
        Runner.sweep sc ~master_seed:5 ~budget:2 ~jobs ~params:emulated_params
          ()
      in
      let r1 = sweep 1 in
      List.iter
        (fun jobs ->
          check_same_report
            (Printf.sprintf "%s emulated jobs=%d" S.name jobs)
            r1 (sweep jobs))
        [ 2; 8 ])
    Registry.all

let test_backend_net_delta () =
  (* Native register ops move no network counters; every emulated op is
     exactly one ABD quorum round of 2*(n + live) messages, visible in
     the engine's Network.stats. *)
  let module Mem = Mm_mem.Mem in
  let run backend =
    let n = 3 in
    let eng =
      Engine.create ~seed:1 ~backend ~domain:(Mm_core.Domain.full n)
        ~link:Net.Reliable ~n ()
    in
    let r =
      Mem.alloc (Engine.store eng) ~name:"x" ~owner:(Id.of_int 0)
        ~shared_with:[ Id.of_int 1; Id.of_int 2 ]
        0
    in
    Engine.spawn eng (Id.of_int 1) (fun () ->
        Proc.write r 5;
        ignore (Proc.read r));
    ignore (Engine.run eng ());
    Net.stats (Engine.network eng)
  in
  let nat = run Mem.Backend.Native in
  Alcotest.(check int) "native: zero sends" 0 nat.Net.sent;
  let emu = run Mem.Backend.Emulated in
  (* two ops, all 3 hosts live: 2 * (2 * (3 + 3)) *)
  Alcotest.(check int) "emulated: one round per op" 24 emu.Net.sent;
  Alcotest.(check int) "emulated: rounds complete" 24 emu.Net.delivered

let test_backend_fingerprints_disjoint () =
  (* Same params, same master seed, opposite backends: the generation
     draw streams coincide, so only the backend salt keeps the dedup
     fingerprints (and hence any cross-backend comparison) apart.  The
     reports themselves must still be clean and structurally equal. *)
  let sweep backend =
    Runner.sweep (scenario "mutex") ~master_seed:3 ~budget:4
      ~params:{ smoke_params with Scenario.backend } ()
  in
  let nat = sweep Mm_mem.Mem.Backend.Native in
  let emu = sweep Mm_mem.Mem.Backend.Emulated in
  Alcotest.(check bool) "native clean" true (nat.Runner.violation = None);
  Alcotest.(check bool) "emulated clean" true (emu.Runner.violation = None);
  Alcotest.(check int) "same distinct count" nat.Runner.distinct_trials
    emu.Runner.distinct_trials

let test_backend_distinguishes () =
  (* The acceptance demo as a pinned test: one crash set (2 of 4, past
     the minority bound but within the complete graph's Thm 4.3 bound
     f* = 2), two backends.  Native rides it out; emulated loses
     wait-freedom, the resilience monitor names the bound, and the
     reported seed replays to the identical counterexample. *)
  let params backend =
    {
      Scenario.default_params with
      graph = Some (B.complete 4);
      n = 4;
      backend;
      max_crashes = Some 2;
    }
  in
  let nat =
    Runner.sweep (scenario "hbo") ~master_seed:1 ~budget:12
      ~params:(params Mm_mem.Mem.Backend.Native)
      ()
  in
  (match nat.Runner.violation with
  | None -> ()
  | Some cx ->
    Alcotest.failf "native should tolerate 2 crashes on K4: %s (%s)"
      cx.Runner.property cx.Runner.detail);
  let emu_params = params Mm_mem.Mem.Backend.Emulated in
  let emu =
    Runner.sweep (scenario "hbo") ~master_seed:1 ~budget:12 ~params:emu_params
      ()
  in
  match emu.Runner.violation with
  | None ->
    Alcotest.fail
      "emulated should lose wait-freedom once a majority can crash"
  | Some cx -> (
    Alcotest.(check string) "the resilience monitor fires first"
      "emulated-resilience" cx.Runner.property;
    Alcotest.(check bool) "diagnosis names the bound" true
      (let re = "no majority quorum" in
       let len = String.length re in
       let s = cx.Runner.detail in
       let rec find i =
         i + len <= String.length s
         && (String.equal (String.sub s i len) re || find (i + 1))
       in
       find 0);
    let replayed =
      Runner.replay (scenario "hbo") ~params:emu_params
        ~trial_seed:cx.Runner.trial_seed ()
    in
    match replayed.Runner.violation with
    | None -> Alcotest.fail "replay lost the emulated violation"
    | Some cx' ->
      Alcotest.(check string) "replayed property" cx.Runner.property
        cx'.Runner.property;
      Alcotest.(check string) "replayed detail" cx.Runner.detail
        cx'.Runner.detail;
      Alcotest.(check bool) "replayed trace identical" true
        (cx.Runner.trace = cx'.Runner.trace))

(* --- Fingerprint dedup: duplicates counted, never re-executed --- *)

(* Quantize the generation stream to 4 distinct draw sequences: the
   sweep then sees the same few fingerprints over and over, making the
   dedup accounting observable at a tiny budget.  The wrapper preserves
   the replay contract — a trial is still a pure function of the rng
   handed to [gen]. *)
module Dedup_abd : Scenario.S = struct
  module A = Mm_check.Scenario_abd
  include A

  let name = "abd-dedup4"
  let gen cfg rng = A.gen cfg (Rng.create (Rng.int rng 4))
end

let dedup_params = { Scenario.default_params with n = 3; max_ops = Some 2 }

let test_dedup_accounting () =
  let sweep jobs =
    Runner.sweep
      (module Dedup_abd)
      ~master_seed:3 ~budget:64 ~jobs ~params:dedup_params ()
  in
  let r = sweep 1 in
  Alcotest.(check int) "duplicates still counted in trials_run" 64
    r.Runner.trials_run;
  Alcotest.(check bool) "clean sweep" true (r.Runner.violation = None);
  Alcotest.(check bool) "at most 4 distinct" true
    (r.Runner.distinct_trials <= 4);
  Alcotest.(check bool) "dedup fired" true (r.Runner.deduped >= 32);
  Alcotest.(check int) "split adds up" r.Runner.trials_run
    (r.Runner.distinct_trials + r.Runner.deduped);
  (* The accounting is derived from the deterministic per-trial
     fingerprints, so it is jobs-invariant even though which duplicate
     executions get skipped races across domains. *)
  List.iter
    (fun jobs ->
      check_same_report (Printf.sprintf "dedup jobs=%d" jobs) r (sweep jobs))
    [ 2; 8 ]

let test_dedup_never_hides_violation () =
  (* Starved mutex with quantized generation: a violating fingerprint
     recurs across trial indices, but a violating fingerprint never
     enters the clean memo, so no duplicate of it is ever skipped and
     the lowest violating index is reported at every jobs setting. *)
  let module V : Scenario.S = struct
    module M = Mm_check.Scenario_mutex
    include M

    let name = "mutex-dedup8"
    let gen cfg rng = M.gen cfg (Rng.create (Rng.int rng 8))
  end in
  let params = { Scenario.default_params with n = 4; max_steps = Some 60 } in
  let sweep jobs =
    Runner.sweep (module V) ~master_seed:1 ~budget:40 ~jobs ~params ()
  in
  let r = sweep 1 in
  (match r.Runner.violation with
  | None -> Alcotest.fail "expected a starved-mutex violation"
  | Some cx ->
    Alcotest.(check int) "sweep stopped at the violating trial"
      (cx.Runner.trial + 1) r.Runner.trials_run;
    Alcotest.(check int) "split covers the trials run" r.Runner.trials_run
      (r.Runner.distinct_trials + r.Runner.deduped));
  List.iter
    (fun jobs ->
      check_same_report
        (Printf.sprintf "violation jobs=%d" jobs)
        r (sweep jobs))
    [ 2; 8 ]

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_dedup_merge_across_domains () =
  (* chunk:1 deals consecutive trial indices to different domains, so a
     quantized fingerprint's first occurrence lands on one domain and
     its duplicates on others — each private memo sees it "first" at a
     different index.  The post-join merge recomputes the
     distinct/deduped split from the per-trial fingerprint array, so the
     report must still be bit-identical to the sequential sweep. *)
  let sweep jobs =
    Runner.sweep
      (module Dedup_abd)
      ~master_seed:5 ~budget:48 ~jobs ~chunk:1 ~params:dedup_params ()
  in
  let r1 = sweep 1 in
  Alcotest.(check bool) "duplicates exist to fight over" true
    (r1.Runner.deduped > 0);
  List.iter
    (fun jobs ->
      check_same_report (Printf.sprintf "merge jobs=%d" jobs) r1 (sweep jobs))
    [ 2; 4; 8 ]

let test_domain_stats_account_for_trials () =
  let report, stats =
    Runner.sweep_stats
      (module Dedup_abd)
      ~master_seed:3 ~budget:64 ~jobs:4 ~chunk:4 ~params:dedup_params ()
  in
  Alcotest.(check bool) "clean sweep" true (report.Runner.violation = None);
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  Alcotest.(check int) "claimed partitions trials_run" report.Runner.trials_run
    (sum (fun s -> s.Runner.claimed));
  Array.iter
    (fun s ->
      Alcotest.(check int) "per domain, claimed = executed + dedup hits"
        s.Runner.claimed
        (s.Runner.executed + s.Runner.dedup_hits))
    stats;
  (* Private memos may re-execute a duplicate once per domain, but every
     distinct trial executes somewhere. *)
  Alcotest.(check bool) "executions cover the distinct trials" true
    (sum (fun s -> s.Runner.executed) >= report.Runner.distinct_trials);
  let rendered = Format.asprintf "%a" Runner.pp_domain_stats stats in
  Alcotest.(check bool) "pp names domain 0" true
    (contains_sub rendered "d0:");
  (* A sequential sweep reports exactly one row, with nothing deduped
     away from it. *)
  let seq_report, seq = Runner.sweep_stats
      (module Dedup_abd)
      ~master_seed:3 ~budget:64 ~params:dedup_params ()
  in
  Alcotest.(check int) "sequential: one row" 1 (Array.length seq);
  Alcotest.(check int) "sequential: row covers the sweep"
    seq_report.Runner.trials_run seq.(0).Runner.claimed;
  Alcotest.(check int) "sequential: dedup hits = deduped"
    seq_report.Runner.deduped seq.(0).Runner.dedup_hits;
  (* A violating sequential sweep stops at the hit: its one row claimed
     exactly the trials the report covers. *)
  let starved = { Scenario.default_params with n = 4; max_steps = Some 60 } in
  let vio_report, vio =
    Runner.sweep_stats
      (module Mm_check.Scenario_mutex)
      ~master_seed:1 ~budget:40 ~params:starved ()
  in
  Alcotest.(check bool) "sequential: violation found" true
    (vio_report.Runner.violation <> None);
  Alcotest.(check int) "sequential violating: one row" 1 (Array.length vio);
  Alcotest.(check int) "sequential violating: claimed = trials_run"
    vio_report.Runner.trials_run vio.(0).Runner.claimed

(* --- A violating sweep executes its hit trial once --- *)

(* Counts every execution of the wrapped scenario, and separately the
   shrink candidates the runner asks about.  Atomic: a jobs > 1 sweep
   executes from several domains. *)
module Counting (Sc : Scenario.S) = struct
  include Sc

  let executes = Atomic.make 0
  let candidates = Atomic.make 0

  let execute ?arena cfg t =
    Atomic.incr executes;
    Sc.execute ?arena cfg t

  let shrink cfg ~still_fails t =
    let still_fails c =
      Atomic.incr candidates;
      still_fails c
    in
    Sc.shrink cfg ~still_fails t
end

let count_hit_executions name (module Sc : Scenario.S) ~params ~budget =
  let module C = Counting (Sc) in
  let run jobs =
    Atomic.set C.executes 0;
    Atomic.set C.candidates 0;
    let report, stats =
      Runner.sweep_stats (module C) ~master_seed:1 ~budget ~jobs ~params ()
    in
    let detected = Array.fold_left (fun a s -> a + s.Runner.executed) 0 stats in
    Alcotest.(check int)
      (Printf.sprintf "%s jobs=%d: executions = detection + shrink candidates"
         name jobs)
      (detected + Atomic.get C.candidates)
      (Atomic.get C.executes);
    report
  in
  let r1 = run 1 in
  let cx =
    match r1.Runner.violation with
    | Some cx -> cx
    | None -> Alcotest.failf "%s: expected a violation" name
  in
  Unix.putenv "MM_CHECK_MAX_DOMAINS" "2";
  let r2 =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "MM_CHECK_MAX_DOMAINS" "8")
      (fun () -> run 2)
  in
  check_same_report (name ^ " jobs=2") r1 r2;
  (* Replay re-executes the trial from its seed, then the same
     candidates, and reports the identical counterexample. *)
  Atomic.set C.executes 0;
  Atomic.set C.candidates 0;
  let rp = Runner.replay (module C) ~params ~trial_seed:cx.Runner.trial_seed () in
  Alcotest.(check int) (name ^ ": replay executes the trial + candidates")
    (1 + Atomic.get C.candidates)
    (Atomic.get C.executes);
  match rp.Runner.violation with
  | None -> Alcotest.failf "%s: replay lost the violation" name
  | Some cx' ->
    Alcotest.(check bool) (name ^ ": replay = reported counterexample") true
      ({ cx' with Runner.trial = cx.Runner.trial } = cx)

let test_hit_executed_once () =
  count_hit_executions "paxos"
    (module Mm_check.Scenario_paxos)
    ~params:{ Scenario.default_params with max_crashes = Some 0; max_steps = Some 60 }
    ~budget:20;
  count_hit_executions "hbo"
    (module Mm_check.Scenario_hbo)
    ~params:
      {
        Scenario.default_params with
        graph = Some (B.disjoint_cliques ~cliques:2 ~k:3);
        family = "disjoint";
        max_crashes = Some 3;
      }
    ~budget:100

let test_minor_heap_restored_after_parallel_sweep () =
  (* Workers pre-size their minor heap (MM_CHECK_MINOR_HEAP override);
     worker 0 is the calling domain, so the sweep must restore the main
     domain's setting on the way out. *)
  Unix.putenv "MM_CHECK_MINOR_HEAP" (string_of_int (1 lsl 18));
  Fun.protect
    ~finally:(fun () -> Unix.putenv "MM_CHECK_MINOR_HEAP" "")
    (fun () ->
      let before = (Gc.get ()).Gc.minor_heap_size in
      let report =
        Runner.sweep
          (module Dedup_abd)
          ~master_seed:2 ~budget:8 ~jobs:4 ~chunk:1 ~params:dedup_params ()
      in
      Alcotest.(check int) "sweep ran" 8 report.Runner.trials_run;
      Alcotest.(check int) "main domain's minor heap restored" before
        (Gc.get ()).Gc.minor_heap_size)

let test_sequential_sweep_leaves_minor_heap () =
  (* Only a parallel sweep shapes worker minor heaps: ask for one twice
     the current size and check that a jobs = 1 sweep leaves the
     caller's setting alone. *)
  let before = (Gc.get ()).Gc.minor_heap_size in
  Unix.putenv "MM_CHECK_MINOR_HEAP" (string_of_int (2 * before));
  Fun.protect
    ~finally:(fun () -> Unix.putenv "MM_CHECK_MINOR_HEAP" "")
    (fun () ->
      let report =
        Runner.sweep
          (module Dedup_abd)
          ~master_seed:2 ~budget:8 ~jobs:1 ~params:dedup_params ()
      in
      Alcotest.(check int) "sweep ran" 8 report.Runner.trials_run;
      Alcotest.(check int) "minor heap unchanged" before
        (Gc.get ()).Gc.minor_heap_size)

(* --- Nemesis: staged fault-injection timelines --- *)

let test_nemesis_gen_well_formed () =
  for seed = 0 to 49 do
    let gen_once () =
      Nemesis.gen (Rng.create seed) ~n:4 ~avoid:[ 1 ] ~horizon:1_000
        ~max_stages:3 ~allow_drop:false
    in
    let tl = gen_once () in
    Nemesis.validate tl ~n:4;
    Alcotest.(check bool) "same seed, same timeline" true (tl = gen_once ());
    Alcotest.(check bool) "non-empty" true (tl <> []);
    Alcotest.(check bool) "heals within horizon" true
      (Nemesis.heal_step tl <= 1_000);
    List.iter
      (fun (st : Nemesis.stage) ->
        match st.Nemesis.fault with
        | Nemesis.Crash _ -> Alcotest.fail "gen drew a crash burst"
        | Nemesis.Restart _ -> Alcotest.fail "gen drew a restart window"
        | Nemesis.Freeze ps ->
          Alcotest.(check bool) "avoided pid never frozen" false
            (List.mem 1 ps)
        | Nemesis.Degrade { drop; _ } ->
          Alcotest.(check (float 0.0)) "no loss unless allowed" 0.0 drop
        | Nemesis.Partition _ -> ())
      tl
  done

let test_nemesis_gen_covers_fault_kinds () =
  let part = ref 0 and deg = ref 0 and frz = ref 0 in
  for seed = 0 to 49 do
    List.iter
      (fun (st : Nemesis.stage) ->
        match st.Nemesis.fault with
        | Nemesis.Partition _ -> incr part
        | Nemesis.Degrade _ -> incr deg
        | Nemesis.Freeze _ -> incr frz
        | Nemesis.Crash _ | Nemesis.Restart _ -> ())
      (Nemesis.gen (Rng.create seed) ~n:4 ~avoid:[] ~horizon:1_000
         ~max_stages:3 ~allow_drop:true)
  done;
  Alcotest.(check bool) "partitions drawn" true (!part > 0);
  Alcotest.(check bool) "degrades drawn" true (!deg > 0);
  Alcotest.(check bool) "freezes drawn" true (!frz > 0)

let test_nemesis_validate_rejects () =
  let rejects name tl =
    Alcotest.(check bool) name true
      (try Nemesis.validate tl ~n:3; false with Invalid_argument _ -> true)
  in
  let st at duration fault = { Nemesis.at; duration; fault } in
  rejects "negative start" [ st (-1) 5 (Nemesis.Freeze [ 0 ]) ];
  rejects "zero duration" [ st 0 0 (Nemesis.Freeze [ 0 ]) ];
  rejects "one-group partition" [ st 0 5 (Nemesis.Partition [ [ 0; 1; 2 ] ]) ];
  rejects "pid in two groups"
    [ st 0 5 (Nemesis.Partition [ [ 0 ]; [ 0; 1 ] ]) ];
  rejects "partition pid range" [ st 0 5 (Nemesis.Partition [ [ 0 ]; [ 7 ] ]) ];
  rejects "empty freeze" [ st 0 5 (Nemesis.Freeze []) ];
  rejects "bad degrade drop"
    [
      st 0 5 (Nemesis.Degrade { members = [ 0 ]; drop = 1.0; extra_delay = 0 });
    ];
  rejects "negative crash step" [ st 0 1 (Nemesis.Crash [ (0, -2) ]) ]

let test_nemesis_shrink_minimizes () =
  let freeze =
    { Nemesis.at = 10; duration = 100; fault = Nemesis.Freeze [ 2 ] }
  in
  let partition =
    { Nemesis.at = 0; duration = 50; fault = Nemesis.Partition [ [ 0 ]; [ 1; 2 ] ] }
  in
  (* "Fails" iff the timeline still freezes p2 for at least 40 steps. *)
  let still_fails tl =
    List.exists
      (fun (st : Nemesis.stage) ->
        st.Nemesis.fault = Nemesis.Freeze [ 2 ] && st.Nemesis.duration >= 40)
      tl
  in
  let shrunk = Nemesis.shrink ~still_fails [ partition; freeze ] in
  Alcotest.(check bool) "still fails" true (still_fails shrunk);
  match shrunk with
  | [ st ] ->
    Alcotest.(check bool) "kept the freeze" true
      (st.Nemesis.fault = Nemesis.Freeze [ 2 ]);
    Alcotest.(check int) "duration minimized" 40 st.Nemesis.duration
  | _ -> Alcotest.failf "expected a single stage, got %d" (List.length shrunk)

let nemesis_params = { smoke_params with Scenario.nemesis = true }

let test_registry_nemesis_sweeps_clean () =
  List.iter
    (fun (module S : Scenario.S) ->
      clean_sweep S.name ~budget:2 ~params:nemesis_params)
    Registry.all

let test_registry_nemesis_jobs_deterministic () =
  List.iter
    (fun ((module S : Scenario.S) as sc) ->
      let sweep jobs =
        Runner.sweep sc ~master_seed:11 ~budget:2 ~jobs ~params:nemesis_params
          ()
      in
      check_same_report (S.name ^ "+nemesis") (sweep 1) (sweep 2))
    Registry.all

(* Acceptance: every registered scenario runs under at least one
   partition-then-heal timeline, and re-executing that exact trial gives
   byte-identical monitor verdicts and trace. *)
let test_partition_timeline_replays_identically () =
  List.iter
    (fun (module S : Scenario.S) ->
      let cfg = S.cfg_of_params nemesis_params in
      let rec hunt seed =
        if seed > 500 then
          Alcotest.failf "%s: no partition timeline within 500 seeds" S.name
        else
          let t = S.gen cfg (Rng.create seed) in
          let nem =
            Option.value ~default:""
              (Config.find_str (S.config cfg t) "nemesis")
          in
          if contains_sub nem "partition(" then t else hunt (seed + 1)
      in
      let t = hunt 0 in
      let run () =
        let o = S.execute cfg t in
        ( List.map (fun (name, m) -> (name, m o)) (S.monitors cfg t),
          S.trace o )
      in
      let v1, tr1 = run () in
      let v2, tr2 = run () in
      Alcotest.(check bool) (S.name ^ ": identical verdicts") true (v1 = v2);
      Alcotest.(check bool) (S.name ^ ": identical trace") true (tr1 = tr2))
    Registry.all

(* Starving omega's convergence allowance flushes out a violation: the
   reported timeline must be in the config, the shrunk reproducer
   non-empty, and the replay from the reported seed byte-identical. *)
let test_omega_nemesis_convergence_violation () =
  let params = { nemesis_params with Scenario.settle = Some 10 } in
  let sc = scenario "omega" in
  let report = Runner.sweep sc ~master_seed:1 ~budget:40 ~params () in
  match report.Runner.violation with
  | None ->
    Alcotest.fail "expected a nemesis-convergence violation with settle=10"
  | Some cx ->
    Alcotest.(check string) "property" "nemesis-convergence"
      cx.Runner.property;
    Alcotest.(check bool) "config names the timeline" true
      (match Config.find_str cx.Runner.config "nemesis" with
      | Some d -> d <> "none"
      | None -> false);
    Alcotest.(check bool) "shrunk non-empty" true (cx.Runner.shrunk <> []);
    let replayed =
      Runner.replay sc ~params ~trial_seed:cx.Runner.trial_seed ()
    in
    (match replayed.Runner.violation with
    | None -> Alcotest.fail "replay lost the violation"
    | Some cx' ->
      Alcotest.(check string) "replayed property" cx.Runner.property
        cx'.Runner.property;
      Alcotest.(check string) "replayed detail" cx.Runner.detail
        cx'.Runner.detail;
      Alcotest.(check bool) "replayed config" true
        (cx.Runner.config = cx'.Runner.config);
      Alcotest.(check bool) "replayed trace" true
        (cx.Runner.trace = cx'.Runner.trace))

(* --- omega's stop rule: the window opens once Ω has held --- *)

module Scenario_omega = Mm_check.Scenario_omega

(* Crash-free scenario trials end once the window has held, well below
   the warmup + window cap, and the window opened after the last leader
   change. *)
let test_omega_stop_rule_crash_free () =
  let params = { omega_params with Scenario.max_crashes = Some 0 } in
  let cfg = Scenario_omega.cfg_of_params params in
  for seed = 0 to 4 do
    let t = Scenario_omega.gen cfg (Rng.create seed) in
    let o = Scenario_omega.execute cfg t in
    let label = Printf.sprintf "seed %d" seed in
    Alcotest.(check bool) (label ^ ": below the cap") true
      (o.Omega.run.steps < 35_000);
    Alcotest.(check int) (label ^ ": window held 5000 steps")
      (o.Omega.window_start + 5_000) o.Omega.run.steps;
    Alcotest.(check bool) (label ^ ": window after the last change") true
      (o.Omega.window_start >= o.Omega.last_change_step);
    List.iter
      (fun (name, m) ->
        match m o with
        | Monitor.Pass -> ()
        | Monitor.Fail d -> Alcotest.failf "%s: %s failed: %s" label name d)
      (Scenario_omega.monitors cfg t)
  done

(* A crash of the elected leader scheduled after a stable stretch longer
   than the window still runs: the window may not open before it, so the
   re-election is seen and the window opens after the crash. *)
let test_omega_stop_rule_leader_crash () =
  let window = 2_000 in
  let run ?(crashes = []) opens_at =
    Omega.run ~seed:5 ~timely:[ (0, 4); (1, 4) ] ~crashes ~warmup:30_000
      ~window ~stop_rule:{ Omega.opens_at; silent = false }
      ~variant:Omega.Reliable ~n:4 ()
  in
  let calm = run 0 in
  let leader =
    match calm.Omega.agreed_leader with
    | Some l -> l
    | None -> Alcotest.fail "crash-free run elected no leader"
  in
  let at = calm.Omega.last_change_step + (3 * window) in
  Alcotest.(check bool) "crash-free run stopped before the crash step" true
    (calm.Omega.run.steps < at);
  let o = run ~crashes:[ (leader, at) ] at in
  Alcotest.(check bool) "a new leader" true
    (match o.Omega.agreed_leader with Some l -> l <> leader | None -> false);
  Alcotest.(check bool) "re-election after the crash" true
    (o.Omega.last_change_step > at);
  Alcotest.(check bool) "window opened after the crash" true
    (o.Omega.window_start > o.Omega.last_change_step);
  Alcotest.(check int) "window held" (o.Omega.window_start + window)
    o.Omega.run.steps;
  Alcotest.(check bool) "Ω holds" true (Omega.holds o)

(* Two processes on the shared harness: p1 settles on leader 0 at once;
   p0 reports its own leader output per [leader_at k] after every
   [period] of its steps and sends one [Ping] to p1 at its [ping_at]th
   step. *)
let toy_leader_run ~period ~leader_at ~ping_at ~silent ~window ~cap =
  let eng =
    Engine.create ~seed:3 ~domain:(Mm_core.Domain.full 2) ~link:Net.Reliable
      ~n:2 ()
  in
  let crashed = Engine.crash_plan eng [] in
  let report, measure = Omega.leader_log eng ~crashed in
  Engine.spawn eng (Id.of_int 0) (fun () ->
      let rec loop k =
        if k = ping_at then Proc.send (Id.of_int 1) Ping else Proc.yield ();
        if k mod period = 0 then
          Option.iter (report 0) (leader_at (k / period));
        loop (k + 1)
      in
      loop 0);
  Engine.spawn eng (Id.of_int 1) (fun () ->
      report 1 0;
      let rec idle () =
        ignore (Proc.receive ());
        idle ()
      in
      idle ());
  measure ~opens_at:0 ~silent ~window ~cap

(* Leadership that keeps changing never holds a window: the run reaches
   the cap, is judged on its last [window] steps, and fails
   omega-stable. *)
let test_omega_stop_rule_cap () =
  let o =
    toy_leader_run ~period:300
      ~leader_at:(fun k -> Some (k mod 2))
      ~ping_at:(-1) ~silent:false ~window:1_000 ~cap:6_000
  in
  Alcotest.(check int) "ran to the cap" 6_000 o.Omega.run.steps;
  Alcotest.(check int) "judged on the last window" 5_000 o.Omega.window_start;
  Alcotest.(check bool) "changed inside it" true
    (o.Omega.last_change_step > 5_000);
  match Monitor.omega_stable o with
  | Monitor.Fail _ -> ()
  | Monitor.Pass -> Alcotest.fail "omega-stable passed a changing leader"

(* A send with no leader change restarts the window only where silence
   is monitored. *)
let test_omega_stop_rule_silence () =
  let run silent =
    toy_leader_run ~period:max_int
      ~leader_at:(fun k -> if k = 0 then Some 0 else None)
      ~ping_at:400 ~silent ~window:1_000 ~cap:6_000
  in
  let quiet = run true and loud = run false in
  Alcotest.(check bool) "silent: window opens after the send" true
    (quiet.Omega.window_start > quiet.Omega.last_change_step + 400);
  Alcotest.(check int) "silent: no send inside the window" 0
    quiet.Omega.window_net.Net.sent;
  Alcotest.(check bool) "not silent: the send is inside the window" true
    (loud.Omega.window_start < 400 && loud.Omega.window_net.Net.sent = 1)

(* `mm check omega --budget 18 --seed 467947351` failed omega-stable on
   its trial 4 under the fixed 60 000 + 10 000 schedule.  The cause is a
   late handover, not a lasting instability: p1 (not timely) leads from
   step 575 until p0's adaptive timeout on p1's heartbeat trips at step
   61 797; p0 accuses p1 and leads after a re-election that ends at step
   62 619.  The trace is silent from step 555 until that accusation.
   Under the stop rule the same trial passes once its window held. *)
let test_omega_late_handover_pinned () =
  let run ?stop_rule ?(trace_capacity = 0) ~warmup ~window () =
    Omega.run ~seed:654238205 ~crashes:[ (5, 15_861) ] ~trace_capacity ~warmup
      ~window ?stop_rule ~variant:Omega.Reliable ~n:6 ()
  in
  let before = run ~warmup:61_797 ~window:0 () in
  Alcotest.(check (option int)) "p1 leads at step 61797" (Some 1)
    before.Omega.agreed_leader;
  Alcotest.(check int) "since step 575" 575 before.Omega.last_change_step;
  let fixed = run ~trace_capacity:70_000 ~warmup:60_000 ~window:10_000 () in
  Alcotest.(check int) "last change" 62_619 fixed.Omega.last_change_step;
  Alcotest.(check (option int)) "p0 leads at the end" (Some 0)
    fixed.Omega.agreed_leader;
  Alcotest.(check bool) "fixed window fails" false (Omega.holds fixed);
  let sends =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.op with
        | Trace.Sent q when e.Trace.step > 555 ->
          Some (e.Trace.step, Id.to_int e.Trace.pid, Id.to_int q)
        | _ -> None)
      fixed.Omega.run.trace
  in
  Alcotest.(check (option (triple int int int)))
    "first send after 555: p0 accuses p1" (Some (61_797, 0, 1))
    (List.nth_opt sends 0);
  let stopped =
    run ~stop_rule:{ Omega.opens_at = 15_861; silent = false } ~warmup:60_000
      ~window:10_000 ()
  in
  Alcotest.(check bool) "stop rule passes before the handover" true
    (Omega.holds stopped && stopped.Omega.run.steps < 61_797)

(* With no --crash-window, crash steps are drawn within the warmup: a
   short trial must not list crashes that never run (nor shrink them). *)
let test_omega_crashes_within_warmup () =
  List.iter
    (fun warmup ->
      let params =
        {
          Scenario.default_params with
          warmup = Some warmup;
          window = Some 1;
          nemesis = true;
          restarts = true;
        }
      in
      let cfg = Scenario_omega.cfg_of_params params in
      let drawn = ref 0 in
      for seed = 0 to 49 do
        let t = Scenario_omega.gen cfg (Rng.create seed) in
        match Config.find_str (Scenario_omega.config cfg t) "crashes" with
        | None -> Alcotest.fail "no crashes line"
        | Some "none" -> ()
        | Some line ->
          List.iter
            (fun c ->
              let step = Scanf.sscanf c "p%d@%d" (fun _ step -> step) in
              incr drawn;
              if step > warmup then
                Alcotest.failf "warmup %d, seed %d: crash at step %d" warmup
                  seed step)
            (String.split_on_char ' ' line)
      done;
      Alcotest.(check bool) (Printf.sprintf "warmup %d drew crashes" warmup)
        true (!drawn > 0))
    [ 1; 500; 25_000 ]

(* --- crash-recovery: restart windows through the sweep --- *)

let test_gen_restarts_well_formed () =
  let windows_seen = ref 0 in
  for seed = 0 to 49 do
    let gen_once () =
      Nemesis.gen_restarts (Rng.create seed) ~n:4 ~avoid:[ 1 ] ~horizon:1_000
        ~max_windows:2
    in
    let tl = gen_once () in
    Nemesis.validate tl ~n:4;
    Alcotest.(check bool) "same seed, same windows" true (tl = gen_once ());
    Alcotest.(check bool) "heals within horizon" true
      (Nemesis.heal_step tl <= 1_000);
    (* Windows are strictly sequential even across pids: at most one
       process is transiently down at a time. *)
    let last_end = ref (-1) in
    List.iter
      (fun (st : Nemesis.stage) ->
        incr windows_seen;
        (match st.Nemesis.fault with
        | Nemesis.Restart [ p ] ->
          Alcotest.(check bool) "avoided pid never restarted" false (p = 1)
        | Nemesis.Restart _ -> Alcotest.fail "multi-pid restart window"
        | _ -> Alcotest.fail "gen_restarts drew a non-restart fault");
        Alcotest.(check bool) "strictly sequential windows" true
          (st.Nemesis.at > !last_end);
        last_end := st.Nemesis.at + st.Nemesis.duration)
      tl
  done;
  Alcotest.(check bool) "some seeds draw windows" true (!windows_seen > 0)

let test_restart_validate_rejects_overlap () =
  let st at duration fault = { Nemesis.at; duration; fault } in
  Alcotest.(check bool) "overlapping same-pid restarts rejected" true
    (try
       Nemesis.validate
         [ st 0 10 (Nemesis.Restart [ 0 ]); st 5 10 (Nemesis.Restart [ 0 ]) ]
         ~n:3;
       false
     with Invalid_argument _ -> true);
  (* distinct pids may roll one after the other *)
  Nemesis.validate
    [ st 0 10 (Nemesis.Restart [ 0 ]); st 15 10 (Nemesis.Restart [ 1 ]) ]
    ~n:3

(* The emulated gate: one transiently-down process on top of the
   crash-stop plan must still leave a live ABD majority. *)
let test_restarts_safe_bound () =
  let module B = Mm_mem.Mem.Backend in
  Alcotest.(check bool) "native always safe" true
    (Mm_check.Fault_plan.restarts_safe B.Native ~n:2 ~ncrashes:5);
  List.iter
    (fun (n, ncrashes, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "emulated n=%d crashes=%d" n ncrashes)
        expect
        (Mm_check.Fault_plan.restarts_safe B.Emulated ~n ~ncrashes))
    [ (3, 0, true); (4, 0, true); (4, 1, false); (5, 1, true); (3, 1, false) ]

let restart_params = { smoke_params with Scenario.restarts = true }

(* Default restart sweeps are clean on both backends: recovery closures
   rebuild enough state that no monitor — durability and
   recovery-liveness included — goes red without an injected cause. *)
let test_registry_restarts_sweeps_clean () =
  List.iter
    (fun (module S : Scenario.S) ->
      clean_sweep S.name ~budget:2 ~params:restart_params)
    Registry.all;
  let emu =
    { restart_params with Scenario.backend = Mm_mem.Mem.Backend.Emulated }
  in
  List.iter
    (fun name -> clean_sweep name ~budget:2 ~params:emu)
    [ "omega"; "smr"; "kv" ]

let test_registry_restarts_jobs_deterministic () =
  List.iter
    (fun ((module S : Scenario.S) as sc) ->
      let sweep jobs =
        Runner.sweep sc ~master_seed:13 ~budget:2 ~jobs ~params:restart_params
          ()
      in
      check_same_report (S.name ^ "+restarts") (sweep 1) (sweep 2))
    Registry.all

(* The replay contract across the flag: restart draws come last, so a
   trial seed recorded before --restarts existed describes the same
   trial when the sweep later turns the flag on — its config gains only
   the new "restarts" row. *)
let test_pre_restart_seeds_unchanged () =
  let drop_restarts = List.filter (fun (k, _) -> k <> "restarts") in
  List.iter
    (fun (module S : Scenario.S) ->
      let cfg_off = S.cfg_of_params smoke_params in
      let cfg_on = S.cfg_of_params restart_params in
      for seed = 0 to 9 do
        let t_off = S.gen cfg_off (Rng.create seed) in
        let t_on = S.gen cfg_on (Rng.create seed) in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: draw unchanged modulo restarts row"
             S.name seed)
          true
          (S.config cfg_off t_off = drop_restarts (S.config cfg_on t_on))
      done)
    Registry.all

(* Starving kv's settle allowance flushes out a recovery-liveness
   violation: requests interrupted by a restart window cannot all
   complete within one step of the heal.  The reported timeline must be
   in the config, the shrunk reproducer non-empty, and the replay from
   the reported seed byte-identical — the acceptance path behind
   [mm check kv --restarts]. *)
let test_kv_restart_recovery_violation () =
  let params = { restart_params with Scenario.settle = Some 1 } in
  let sc = scenario "kv" in
  let report = Runner.sweep sc ~master_seed:17 ~budget:40 ~params () in
  match report.Runner.violation with
  | None ->
    Alcotest.fail "expected a recovery-liveness violation with settle=1"
  | Some cx ->
    Alcotest.(check string) "property" "recovery-liveness" cx.Runner.property;
    Alcotest.(check bool) "config names the restart timeline" true
      (match Config.find_str cx.Runner.config "restarts" with
      | Some d -> d <> "none"
      | None -> false);
    Alcotest.(check bool) "shrunk non-empty" true (cx.Runner.shrunk <> []);
    let replayed =
      Runner.replay sc ~params ~trial_seed:cx.Runner.trial_seed ()
    in
    (match replayed.Runner.violation with
    | None -> Alcotest.fail "replay lost the violation"
    | Some cx' ->
      Alcotest.(check string) "replayed property" cx.Runner.property
        cx'.Runner.property;
      Alcotest.(check string) "replayed detail" cx.Runner.detail
        cx'.Runner.detail;
      Alcotest.(check bool) "replayed config" true
        (cx.Runner.config = cx'.Runner.config);
      Alcotest.(check bool) "replayed trace" true
        (cx.Runner.trace = cx'.Runner.trace))

(* A restart window's revive is an engine restart: while it is pending
   the run may not stop [Quiescent], even once every other process has
   finished.  p0 returns at once, p1 spins until its window crashes it
   and must come back through [recover] at step at + duration + 1. *)
let test_restart_window_keeps_run_alive () =
  let at = 3 and duration = 5 in
  let eng =
    Engine.create ~seed:5 ~trace_capacity:64 ~domain:(Mm_core.Domain.full 2)
      ~link:Net.Reliable ~n:2 ()
  in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
  let recovered = ref false in
  Engine.spawn eng p0 (fun () -> ());
  Engine.spawn eng p1
    ~recover:(fun () -> recovered := true)
    (fun () ->
      let rec spin () =
        Proc.yield ();
        spin ()
      in
      spin ());
  Nemesis.install
    [ { Nemesis.at; duration; fault = Nemesis.Restart [ 1 ] } ]
    eng;
  let reason = Engine.run eng ~max_steps:1_000 () in
  Alcotest.(check bool) "run ends quiescent" true (reason = Engine.Quiescent);
  Alcotest.(check bool) "p1 revived through recover" true !recovered;
  Alcotest.(check bool) "p1 done" true (Engine.status_of eng p1 = Engine.Done);
  let restarted =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.pid = p1 && e.Trace.op = Trace.Restarted then
          Some e.Trace.step
        else None)
      (Engine.summary eng).Engine.trace
  in
  Alcotest.(check (list int)) "restarted at at + duration + 1"
    [ at + duration + 1 ] restarted

(* The three paxos sweeps that used to stop before a pending revive and
   report a false recovery-liveness violation
   ([mm check paxos --restarts --budget 2000 --seed 3], the
   [--nemesis --restarts] one at budget 100 seed 4, and its emulated
   twin at budget 160 seed 2). *)
let test_paxos_restart_sweeps_clean () =
  let base = { Scenario.default_params with Scenario.restarts = true } in
  List.iter
    (fun (params, budget, master_seed) ->
      clean_sweep "paxos" ~master_seed ~budget ~params)
    [
      (base, 2_000, 3);
      ({ base with Scenario.nemesis = true }, 100, 4);
      ( {
          base with
          Scenario.nemesis = true;
          backend = Mm_mem.Mem.Backend.Emulated;
        },
        160,
        2 );
    ]

(* --- parameter validation: --settle and --chunk must be positive --- *)

let rejects f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_settle_must_be_positive () =
  List.iter
    (fun name ->
      let (module S : Scenario.S) = scenario name in
      List.iter
        (fun bad ->
          Alcotest.(check bool)
            (Printf.sprintf "%s rejects settle=%d" name bad)
            true
            (rejects (fun () ->
                 S.cfg_of_params
                   { smoke_params with Scenario.settle = Some bad })))
        [ 0; -1; -10_000 ];
      (* a positive settle is accepted *)
      ignore
        (S.cfg_of_params { smoke_params with Scenario.settle = Some 100 }))
    [ "omega"; "kv" ]

let test_chunk_must_be_positive () =
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep rejects chunk=%d" bad)
        true
        (rejects (fun () ->
             Runner.sweep (scenario "omega") ~budget:1 ~chunk:bad
               ~params:smoke_params ())))
    [ 0; -1 ];
  (* chunk composes with the parallel path without changing the report *)
  let sweep ?chunk ~jobs () =
    Runner.sweep (scenario "hbo") ~master_seed:3 ~budget:8 ~jobs ?chunk
      ~params:smoke_params ()
  in
  let base = sweep ~jobs:1 () in
  List.iter
    (fun chunk ->
      let r = sweep ~chunk ~jobs:2 () in
      Alcotest.(check bool)
        (Printf.sprintf "chunk=%d report unchanged" chunk)
        true
        ( r.Runner.trials_run = base.Runner.trials_run
        && r.Runner.distinct_trials = base.Runner.distinct_trials
        && r.Runner.violation = base.Runner.violation ))
    [ 1; 3; 64 ]

let () =
  (* Runner.sweep caps its worker-domain count at the machine's core
     count; lift the cap so the jobs-determinism tests drive the real
     parallel claiming path even on a single-core CI host.  Reports
     must be identical either way — that is what the tests assert. *)
  Unix.putenv "MM_CHECK_MAX_DOMAINS" "8";
  Alcotest.run "mm_check"
    [
      ( "lin",
        [
          Alcotest.test_case "sequential" `Quick test_lin_sequential;
          Alcotest.test_case "stale read" `Quick test_lin_stale_read_rejected;
          Alcotest.test_case "concurrency" `Quick
            test_lin_concurrency_allows_reorder;
          Alcotest.test_case "validation" `Quick test_lin_validation;
          Alcotest.test_case "100-event history" `Quick test_lin_long_history;
          QCheck_alcotest.to_alcotest prop_lin_agrees_with_wing_gong;
        ] );
      ( "explore",
        [
          Alcotest.test_case "pct deterministic" `Quick test_pct_deterministic;
          Alcotest.test_case "pct runnable-only" `Quick test_pct_picks_runnable;
          Alcotest.test_case "pct validation" `Quick test_pct_validation;
          Alcotest.test_case "pct pick pins" `Quick test_pct_pins;
          Alcotest.test_case "pct past n = 512" `Quick test_pct_large_n;
          Alcotest.test_case "pct pid out of range" `Quick
            test_pct_pid_out_of_range;
          Alcotest.test_case "replay list" `Quick test_replay_follows_list;
          Alcotest.test_case "crash generator" `Quick
            test_gen_crashes_respects_budget;
        ] );
      ( "engine",
        [
          Alcotest.test_case "schedule record+replay" `Quick
            test_schedule_record_and_replay;
          Alcotest.test_case "drop/deliver traced" `Quick
            test_network_events_traced;
        ] );
      ( "pool",
        [
          Alcotest.test_case "lowest index wins" `Quick
            test_pool_lowest_index_wins;
          Alcotest.test_case "no hit + edges" `Quick test_pool_no_hit_and_edges;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "jobs/chunk validation" `Quick
            test_pool_validates_jobs_and_chunk;
          Alcotest.test_case "chunked claiming deterministic" `Quick
            test_pool_chunked_claiming_deterministic;
          Alcotest.test_case "stats accounting" `Quick
            test_pool_stats_accounting;
          Alcotest.test_case "jobs capped by chunk count" `Quick
            test_pool_jobs_capped_by_chunk_count;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "list core" `Quick test_shrink_list;
          Alcotest.test_case "list minimal" `Quick
            test_shrink_list_already_minimal;
          Alcotest.test_case "int threshold" `Quick test_shrink_int;
        ] );
      ( "runner",
        [
          Alcotest.test_case "clique clean" `Quick
            test_hbo_clique_within_bound_clean;
          Alcotest.test_case "past-bound stall found+replayed" `Quick
            test_hbo_past_bound_finds_stall_and_replays;
          Alcotest.test_case "expect-stall holds" `Quick
            test_hbo_expect_stall_on_sm_cut;
          Alcotest.test_case "abd clean" `Quick test_abd_sweep_clean;
          Alcotest.test_case "omega clean" `Quick test_omega_sweep_clean;
          Alcotest.test_case "report pp" `Quick
            test_report_pp_mentions_replay_seed;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names + find" `Quick test_registry_names;
          Alcotest.test_case "paxos clean" `Quick test_paxos_sweep_clean;
          Alcotest.test_case "mutex clean" `Quick test_mutex_sweep_clean;
          Alcotest.test_case "smr clean" `Quick test_smr_sweep_clean;
          Alcotest.test_case "paxos violation replays" `Quick
            test_paxos_violation_replays;
          Alcotest.test_case "mutex violation replays" `Quick
            test_mutex_violation_replays;
          Alcotest.test_case "smr violation replays" `Quick
            test_smr_violation_replays;
          Alcotest.test_case "trial setup bound" `Quick test_trial_setup_bound;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "hbo jobs=1 = jobs=2/4/8" `Quick
            test_hbo_jobs_deterministic;
          Alcotest.test_case "omega jobs=1 = jobs=4" `Quick
            test_omega_jobs_deterministic;
          Alcotest.test_case "abd jobs=1 = jobs=4" `Quick
            test_abd_jobs_deterministic;
          Alcotest.test_case "every scenario jobs=1 = jobs=2/8" `Quick
            test_registry_jobs_deterministic;
        ] );
      ( "backend",
        [
          Alcotest.test_case "default crash budgets capped" `Quick
            test_cap_crashes;
          Alcotest.test_case "every scenario sweeps clean emulated" `Quick
            test_registry_emulated_sweeps_clean;
          Alcotest.test_case "emulated jobs=1 = jobs=2/8" `Quick
            test_registry_emulated_jobs_deterministic;
          Alcotest.test_case "net delta: native 0, emulated one round" `Quick
            test_backend_net_delta;
          Alcotest.test_case "fingerprints disjoint across backends" `Quick
            test_backend_fingerprints_disjoint;
          Alcotest.test_case "native tolerates what emulated cannot" `Quick
            test_backend_distinguishes;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "duplicates counted not re-run" `Quick
            test_dedup_accounting;
          Alcotest.test_case "violations never deduped" `Quick
            test_dedup_never_hides_violation;
          Alcotest.test_case "merge across domains" `Quick
            test_dedup_merge_across_domains;
          Alcotest.test_case "domain stats account for trials" `Quick
            test_domain_stats_account_for_trials;
          Alcotest.test_case "violating sweep executes its hit once" `Quick
            test_hit_executed_once;
          Alcotest.test_case "minor heap restored" `Quick
            test_minor_heap_restored_after_parallel_sweep;
          Alcotest.test_case "sequential sweep leaves minor heap" `Quick
            test_sequential_sweep_leaves_minor_heap;
        ] );
      ( "nemesis",
        [
          Alcotest.test_case "gen well-formed" `Quick
            test_nemesis_gen_well_formed;
          Alcotest.test_case "gen covers fault kinds" `Quick
            test_nemesis_gen_covers_fault_kinds;
          Alcotest.test_case "validate rejects" `Quick
            test_nemesis_validate_rejects;
          Alcotest.test_case "shrink minimizes" `Quick
            test_nemesis_shrink_minimizes;
          Alcotest.test_case "every scenario sweeps clean" `Quick
            test_registry_nemesis_sweeps_clean;
          Alcotest.test_case "every scenario jobs=1 = jobs=2" `Quick
            test_registry_nemesis_jobs_deterministic;
          Alcotest.test_case "partition-then-heal replays" `Quick
            test_partition_timeline_replays_identically;
          Alcotest.test_case "omega convergence violation" `Quick
            test_omega_nemesis_convergence_violation;
        ] );
      ( "omega stop",
        [
          Alcotest.test_case "crash-free trials stop early" `Quick
            test_omega_stop_rule_crash_free;
          Alcotest.test_case "late leader crash still runs" `Quick
            test_omega_stop_rule_leader_crash;
          Alcotest.test_case "changing leadership reaches the cap" `Quick
            test_omega_stop_rule_cap;
          Alcotest.test_case "sends restart only silent windows" `Quick
            test_omega_stop_rule_silence;
          Alcotest.test_case "seed 467947351 late handover" `Quick
            test_omega_late_handover_pinned;
          Alcotest.test_case "crash steps within warmup" `Quick
            test_omega_crashes_within_warmup;
        ] );
      ( "restarts",
        [
          Alcotest.test_case "gen_restarts well-formed" `Quick
            test_gen_restarts_well_formed;
          Alcotest.test_case "validate rejects overlap" `Quick
            test_restart_validate_rejects_overlap;
          Alcotest.test_case "emulated safety bound" `Quick
            test_restarts_safe_bound;
          Alcotest.test_case "every scenario sweeps clean" `Quick
            test_registry_restarts_sweeps_clean;
          Alcotest.test_case "every scenario jobs=1 = jobs=2" `Quick
            test_registry_restarts_jobs_deterministic;
          Alcotest.test_case "pre-restart seeds replay unchanged" `Quick
            test_pre_restart_seeds_unchanged;
          Alcotest.test_case "kv recovery-liveness violation" `Quick
            test_kv_restart_recovery_violation;
          Alcotest.test_case "pending revive keeps run alive" `Quick
            test_restart_window_keeps_run_alive;
          Alcotest.test_case "paxos restart sweeps clean" `Quick
            test_paxos_restart_sweeps_clean;
        ] );
      ( "validation",
        [
          Alcotest.test_case "settle must be positive" `Quick
            test_settle_must_be_positive;
          Alcotest.test_case "chunk must be positive" `Quick
            test_chunk_must_be_positive;
        ] );
    ]
