(* algo_digest — whole algorithm outcomes, pinned across changes.

   `dune runtest` runs this and diffs its output against the checked-in
   algo_digest.expected.  One line per run: a few headline counts, then
   the MD5 of a rendering of the run's whole outcome, its run record
   ([Engine.summary] counters) and the [Trace.pp_event] text of every
   step (the trace capacity covers the whole run; [Sm_consensus.run]
   records no trace, so its lines pin the outcome and the counters).
   Register reads and writes print the register's name, so the names the
   HBO objects, Paxos's blocks and the replicated log's slots
   materialize are pinned too.

   The golden corpus pins checker trials and the experiment tables pin
   headline counts; this pins the algorithms' own runs: HBO with every
   object implementation that touches memory, on several graph shapes
   and both backends, under PCT and under a stalling partition, plus
   pure shared-memory consensus, single-decree Paxos under each oracle
   (crashes and a restart included), ABD, the replicated log and the Ω
   of Figure 3 over reliable and fair-lossy links (the lossy lines pin
   the names of the Figure 5 notification registers).

   Regenerate only for a change that means to alter behaviour:
     dune build @runtest --auto-promote *)

module Id = Mm_core.Id
module B = Mm_graph.Builders
module Mem = Mm_mem.Mem
module Network = Mm_net.Network
module Engine = Mm_sim.Engine
module Trace = Mm_sim.Trace
module Hbo = Mm_consensus.Hbo
module Sm = Mm_consensus.Sm_consensus
module Paxos = Mm_consensus.Paxos
module Explore = Mm_check.Explore
module Abd = Mm_abd.Abd
module Log = Mm_smr.Replicated_log
module Omega = Mm_election.Omega

let opt_int = function None -> "-" | Some v -> string_of_int v

let render_summary b (r : Engine.summary) =
  let p fmt = Printf.bprintf b fmt in
  let net = r.Engine.net in
  p "%s steps=%d sent=%d delivered=%d dropped=%d in_flight=%d %s blocked=%d \
     coin_flips=%d crashed=%s\n"
    (Format.asprintf "%a" Engine.pp_stop_reason r.Engine.reason)
    r.Engine.steps net.Network.sent net.Network.delivered net.Network.dropped
    net.Network.in_flight
    (Format.asprintf "%a" Mem.pp_counters r.Engine.mem)
    r.Engine.blocked r.Engine.coin_flips
    (String.concat ","
       (List.map string_of_bool (Array.to_list r.Engine.crashed)));
  List.iter
    (fun ev -> p "%s\n" (Format.asprintf "%a" Trace.pp_event ev))
    r.Engine.trace

(* Every run is capped at [cap] steps.  A step can record more than one
   trace event (deliveries are events of their own), so the trace keeps
   [trace_cap] events and [line] fails if a run filled it. *)
let cap = 120_000
let trace_cap = 4 * cap

let line name headline render =
  let b = Buffer.create 65536 in
  let run = render b in
  if List.length run.Engine.trace >= trace_cap then
    failwith (name ^ ": trace capacity reached; the digest would miss events");
  Printf.printf "%-26s %s steps=%d trace=%d %s\n" name headline
    run.Engine.steps
    (List.length run.Engine.trace)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let hbo name ?(seed = 1) ?crashes ?partition ?sched ?(max_steps = cap) ~impl
    ~backend graph inputs =
  let o =
    Hbo.run ~seed ~impl ~backend ~max_steps ~trace_capacity:trace_cap ?crashes
      ?partition ?sched ~graph ~inputs ()
  in
  let decided = Array.fold_left (fun a d -> if d = None then a else a + 1) 0 o.Hbo.decisions in
  line name
    (Printf.sprintf "decided=%d regs=%d" decided o.Hbo.registers)
    (fun b ->
      let p fmt = Printf.bprintf b fmt in
      Array.iteri
        (fun i d ->
          p "p%d decision=%s step=%s round=%s\n" i (opt_int d)
            (opt_int o.Hbo.decide_step.(i))
            (opt_int o.Hbo.decide_round.(i)))
        o.Hbo.decisions;
      p "registers=%d max_round=%d\n" o.Hbo.registers (Hbo.max_round o);
      render_summary b o.Hbo.run;
      o.Hbo.run)

let alternating n = Array.init n (fun i -> i mod 2)

let hbo_runs () =
  let impls = [ ("T", Hbo.Trusted); ("R", Hbo.Registers) ] in
  let backends = [ ("nat", Mem.Backend.Native); ("emu", Mem.Backend.Emulated) ] in
  let graphs =
    [
      ("complete4", B.complete 4, [], 1);
      ("complete6", B.complete 6, [], 2);
      ("ring8", B.ring 8, [], 3);
      ( "disjoint2x3",
        B.disjoint_cliques ~cliques:2 ~k:3,
        [ (0, 40); (1, 300); (4, 0) ],
        4 );
      ("ring70", B.ring 70, [], 5);
    ]
  in
  List.iter
    (fun (gname, graph, crashes, seed) ->
      List.iter
        (fun (iname, impl) ->
          List.iter
            (fun (bname, backend) ->
              hbo
                (Printf.sprintf "hbo.%s.%s.%s" gname iname bname)
                ~seed ~crashes ~impl ~backend graph
                (alternating (Mm_graph.Graph.order graph)))
            backends)
        impls)
    graphs;
  (* One PCT schedule, and the Theorem 4.4 stall: two cliques held apart
     forever, neither side a majority. *)
  List.iter
    (fun (iname, impl) ->
      hbo
        (Printf.sprintf "hbo.pct6.%s" iname)
        ~seed:6 ~impl ~backend:Mem.Backend.Native
        ~sched:(Explore.pct ~seed:6 ~n:6 ~k:3 ~depth:4000)
        (B.complete 6) (alternating 6);
      hbo
        (Printf.sprintf "hbo.stall2x3.%s" iname)
        ~seed:7 ~impl ~backend:Mem.Backend.Native ~max_steps:20_000
        ~partition:([ 0; 1; 2 ], [ 3; 4; 5 ])
        (B.disjoint_cliques ~cliques:2 ~k:3)
        (alternating 6))
    impls

let sm_runs () =
  List.iter
    (fun (name, seed, n, crashes) ->
      let o =
        Sm.run ~seed ~max_steps:cap ~crashes ~n ~inputs:(alternating n) ()
      in
      line name
        (Printf.sprintf "decided=%d"
           (Array.fold_left
              (fun a d -> if d = None then a else a + 1)
              0 o.Sm.decisions))
        (fun b ->
          Array.iteri
            (fun i d -> Printf.bprintf b "p%d decision=%s\n" i (opt_int d))
            o.Sm.decisions;
          render_summary b o.Sm.run;
          o.Sm.run))
    [ ("sm.n5", 8, 5, []); ("sm.n6.crash4", 9, 6, [ (0, 0); (1, 10); (2, 30); (3, 60) ]) ]

(* Each oracle at n = 3 and n = 5 on both backends.  At n = 3 process 0
   (the static leader) crashes and is restarted, so the recovery boot
   runs; at n = 5 process 4 crashes for good and process 0 is restarted
   after a later crash. *)
let paxos_runs () =
  let oracles =
    [
      ("static", Paxos.Static 0);
      ("heartbeat", Paxos.Heartbeat);
      ("anarchy", Paxos.Anarchy);
    ]
  in
  let shapes =
    [
      (3, 31, [ (0, 6) ], [ (0, 18) ]);
      (5, 32, [ (4, 5); (0, 30) ], [ (0, 400) ]);
    ]
  in
  let backends = [ ("nat", Mem.Backend.Native); ("emu", Mem.Backend.Emulated) ] in
  List.iter
    (fun (oname, oracle) ->
      List.iter
        (fun (n, seed, crashes, restarts) ->
          List.iter
            (fun (bname, backend) ->
              let prepare eng =
                List.iter
                  (fun (p, at) -> Engine.restart_at eng (Id.of_int p) at)
                  restarts
              in
              let o =
                Paxos.run ~seed ~oracle ~max_steps:cap ~trace_capacity:trace_cap
                  ~crashes ~prepare ~backend ~n ~inputs:(alternating n) ()
              in
              line
                (Printf.sprintf "paxos.%s.n%d.%s" oname n bname)
                (Printf.sprintf "decided=%d max_ballot=%d restarts=%d"
                   (Array.fold_left
                      (fun a d -> if d = None then a else a + 1)
                      0 o.Paxos.decisions)
                   o.Paxos.max_ballot
                   (List.length
                      (List.filter
                         (fun ev -> ev.Trace.op = Trace.Restarted)
                         o.Paxos.run.Engine.trace)))
                (fun b ->
                  Array.iteri
                    (fun i d ->
                      Printf.bprintf b "p%d decision=%s step=%s\n" i (opt_int d)
                        (opt_int o.Paxos.decide_step.(i)))
                    o.Paxos.decisions;
                  Printf.bprintf b "max_ballot=%d\n" o.Paxos.max_ballot;
                  render_summary b o.Paxos.run;
                  o.Paxos.run))
            backends)
        shapes)
    oracles

let abd_runs () =
  let scripts n =
    Array.init n (fun i ->
        [ `Write (10 + i); `Pause (3 + i); `Read; `Write (20 + i); `Read ])
  in
  List.iter
    (fun (name, seed, delay, crashes) ->
      let n = 5 in
      let o =
        Abd.run ~seed ~max_steps:cap ~trace_capacity:trace_cap ~crashes ~delay ~n
          ~scripts:(scripts n) ()
      in
      line name
        (Printf.sprintf "ops=%d pending=%d violations=%d"
           (List.length o.Abd.history) o.Abd.pending
           (List.length (Abd.atomicity_violations o)))
        (fun b ->
          List.iter
            (fun (e : Abd.event) ->
              let c, w = e.Abd.ts in
              Printf.bprintf b "p%d %s ts=(%d,%d) %d..%d\n" e.Abd.proc
                (match e.Abd.kind with
                | `Write v -> "write " ^ string_of_int v
                | `Read v -> "read " ^ string_of_int v)
                c w e.Abd.start_step e.Abd.end_step)
            o.Abd.history;
          Printf.bprintf b "pending=%d\n" o.Abd.pending;
          render_summary b o.Abd.run;
          o.Abd.run))
    [
      ("abd.immediate", 11, Network.Immediate, []);
      ("abd.fixed3", 12, Network.Fixed 3, [ (4, 50) ]);
      ("abd.uniform", 13, Network.Uniform (1, 6), [ (0, 120); (3, 0) ]);
    ]

let log_runs () =
  List.iter
    (fun (name, seed, backend, crashes, restarts) ->
      let n = 5 in
      let prepare eng =
        List.iter (fun (p, at) -> Engine.restart_at eng (Id.of_int p) at) restarts
      in
      let o =
        Log.run ~seed ~max_steps:cap ~trace_capacity:trace_cap ~crashes ~prepare
          ~backend ~n ~commands_per_proc:3 ()
      in
      let restarted =
        List.length
          (List.filter
             (fun ev -> ev.Trace.op = Trace.Restarted)
             o.Log.run.Engine.trace)
      in
      line name
        (Printf.sprintf "slots=%d dup=%d restarts=%d committed=%b"
           o.Log.slots_used o.Log.duplicate_slots restarted
           o.Log.all_committed)
        (fun b ->
          Array.iteri
            (fun i log ->
              Printf.bprintf b "log %d:" i;
              List.iter
                (fun (s, c) ->
                  Printf.bprintf b " %d=%s" s
                    (Format.asprintf "%a" Log.pp_command c))
                log;
              Printf.bprintf b "\n")
            o.Log.logs;
          Printf.bprintf b "slots=%d dup=%d consistent=%b committed=%b\n"
            o.Log.slots_used o.Log.duplicate_slots o.Log.consistent
            o.Log.all_committed;
          render_summary b o.Log.run;
          o.Log.run))
    [
      ("smr.plain", 21, Mem.Backend.Native, [], []);
      ("smr.crash-restart", 22, Mem.Backend.Native, [ (0, 400); (2, 900) ], [ (0, 1000) ]);
      ("smr.emu.restart", 23, Mem.Backend.Emulated, [ (1, 600) ], [ (1, 1800) ]);
    ]

(* Figure 3 under both notification mechanisms and both backends, with a
   short warmup and window: crash-free, the timely process crashing, a
   crash followed by a restart, and an omission-faulty host memory. *)
let omega_runs () =
  let variants =
    [ ("rel", Omega.Reliable); ("lossy", Omega.Fair_lossy 0.2) ]
  in
  let faults =
    [
      ("plain", 41, [], [], []);
      ("crash", 42, [ (0, 700) ], [], []);
      ("restart", 43, [ (1, 300) ], [ (1, 900) ], []);
      ("memfail", 44, [], [], [ (0, 600) ]);
    ]
  in
  let backends = [ ("nat", Mem.Backend.Native); ("emu", Mem.Backend.Emulated) ] in
  List.iter
    (fun (vname, variant) ->
      List.iter
        (fun (fname, seed, crashes, restarts, memory_failures) ->
          List.iter
            (fun (bname, backend) ->
              let prepare eng =
                List.iter
                  (fun (p, at) -> Engine.restart_at eng (Id.of_int p) at)
                  restarts
              in
              let o =
                Omega.run ~seed ~trace_capacity:trace_cap ~crashes
                  ~memory_failures ~prepare ~warmup:2_000 ~window:1_000
                  ~backend ~variant ~n:4 ()
              in
              line
                (Printf.sprintf "omega.%s.%s.%s" vname fname bname)
                (Printf.sprintf "leader=%s changes=%d holds=%b"
                   (opt_int o.Omega.agreed_leader)
                   o.Omega.total_changes (Omega.holds o))
                (fun b ->
                  let p fmt = Printf.bprintf b fmt in
                  Array.iteri
                    (fun i l -> p "p%d leader=%s\n" i (opt_int l))
                    o.Omega.final_leaders;
                  let w = o.Omega.window_net in
                  p "last_change=%d changes=%d window_start=%d emu=%d \
                     window sent=%d delivered=%d dropped=%d in_flight=%d\n"
                    o.Omega.last_change_step o.Omega.total_changes
                    o.Omega.window_start o.Omega.window_emu_msgs
                    w.Network.sent w.Network.delivered w.Network.dropped
                    w.Network.in_flight;
                  Array.iteri
                    (fun i c ->
                      p "p%d window %s\n" i
                        (Format.asprintf "%a" Mem.pp_counters c))
                    o.Omega.window_mem;
                  render_summary b o.Omega.run;
                  o.Omega.run))
            backends)
        faults)
    variants

let () =
  hbo_runs ();
  sm_runs ();
  paxos_runs ();
  abd_runs ();
  log_runs ();
  omega_runs ()
