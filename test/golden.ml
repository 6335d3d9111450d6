(* golden — the replay contract, pinned across changes.

   `dune runtest` runs this and diffs its output against the checked-in
   golden.expected; any drift in a trial's event stream, a monitor
   verdict or a sweep report fails the build.  Four parts:

   (a) one line per trial for every registered scenario x memory
       backend x {plain, nemesis, restarts} x trial seeds 0-2, at small
       n: the number of trace events kept (the trace holds the last
       4096), an MD5 of their [Trace.pp_event] text, and each monitor's
       verdict (a failure's diagnosis is digested too);
   (b) the full [Runner.pp_report] of the repository's known-violation
       sweeps, each with the parameters its `mm check` command line
       builds (the command is printed above the report);
   (c) one line per trial of part (a)'s matrix for every scenario's
       [shrink], driven without executing anything: the oracle answers
       from an MD5 of the candidate's rendered config, so the shrink
       order, every candidate it proposes and the lines it returns are
       pinned byte for byte;
   (d) part (a)'s line for omega over fair-lossy links (its [drop]
       rate), both backends x {plain, nemesis} x trial seeds 0-2: the
       only trials whose network draws a drop coin per send, and whose
       nemesis may degrade a link into dropping.

   Usage: golden.exe [--jobs N].  [--jobs] (default 1) sets the sweep
   parallelism of part (b) only; reports are jobs-invariant, so every
   value must reproduce the same golden.expected.

   Regenerate only for a change that means to alter behaviour:
     dune build @runtest --auto-promote *)

module B = Mm_graph.Builders
module Rng = Mm_rng.Rng
module Trace = Mm_sim.Trace
module Backend = Mm_mem.Mem.Backend
module Scenario = Mm_check.Scenario
module Registry = Mm_check.Registry
module Runner = Mm_check.Runner
module Monitor = Mm_check.Monitor

let md5 s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* (a) Per-trial digests                                               *)

let modes = [ ("plain", false, false); ("nemesis", true, false); ("restarts", false, true) ]

let small_params backend ~nemesis ~restarts =
  {
    Scenario.default_params with
    graph = Some (B.complete 4);
    n = 4;
    backend;
    max_steps = Some 150_000;
    crash_window = Some 5_000;
    warmup = Some 40_000;
    window = Some 8_000;
    trace_tail = 4096;
    nemesis;
    restarts;
  }

let verdict_text (name, verdict) =
  match verdict with
  | Monitor.Pass -> name ^ "=pass"
  | Monitor.Fail detail -> Printf.sprintf "%s=FAIL(%s)" name (String.sub (md5 detail) 0 8)

let trial_line (module Sc : Scenario.S) params ~mode ~seed =
  let cfg = Sc.cfg_of_params params in
  let t = Sc.gen cfg (Rng.create seed) in
  let o = Sc.execute cfg t in
  let events = Sc.trace o in
  let text =
    String.concat "\n" (List.map (Format.asprintf "%a" Trace.pp_event) events)
  in
  let verdicts =
    List.map (fun (name, m) -> verdict_text (name, m o)) (Sc.monitors cfg t)
  in
  Printf.printf "%s %s %s seed=%d events=%d md5=%s %s\n" Sc.name
    (Backend.name params.Scenario.backend)
    mode seed (List.length events) (md5 text) (String.concat " " verdicts)

let per_trial () =
  print_endline "== per-trial digests";
  List.iter
    (fun sc ->
      List.iter
        (fun (_, backend) ->
          List.iter
            (fun (mode, nemesis, restarts) ->
              let params = small_params backend ~nemesis ~restarts in
              for seed = 0 to 2 do
                trial_line sc params ~mode ~seed
              done)
            modes)
        Backend.all)
    Registry.all

(* ------------------------------------------------------------------ *)
(* (b) Known-violation sweep reports                                   *)

let scenario name = Option.get (Registry.find name)

(* What `mm check` builds from its defaults: graph [family] on [n]
   (complete unless noted), 30 trailing trace events, master seed 1. *)
let cli = { Scenario.default_params with graph = Some (B.complete 6) }

let sweeps =
  [
    ( "hbo -g disjoint --n 6 --crashes 3",
      "hbo",
      { cli with graph = Some (B.disjoint_cliques ~cliques:2 ~k:3);
                 family = "disjoint"; max_crashes = Some 3 },
      None, 1 );
    ( "hbo -g disjoint --n 6 --expect-stall --budget 10",
      "hbo",
      { cli with graph = Some (B.disjoint_cliques ~cliques:2 ~k:3);
                 family = "disjoint"; expect_stall = true },
      Some 10, 1 );
    ( "hbo --n 4 --crashes 2 --backend emulated",
      "hbo",
      { cli with graph = Some (B.complete 4); n = 4; max_crashes = Some 2;
                 backend = Backend.Emulated },
      None, 1 );
    ( "kv --n 3 --nemesis --restarts --settle 1 --budget 60 --seed 17",
      "kv",
      { cli with graph = Some (B.complete 3); n = 3; nemesis = true;
                 restarts = true; settle = Some 1 },
      Some 60, 17 );
    ( "paxos --crashes 0 --max-steps 60 --budget 20",
      "paxos",
      { cli with max_crashes = Some 0; max_steps = Some 60 },
      Some 20, 1 );
    ( "mutex --max-steps 60 --budget 30",
      "mutex",
      { cli with max_steps = Some 60 },
      Some 30, 1 );
    ( "smr --crashes 0 --max-steps 80 --budget 30",
      "smr",
      { cli with max_crashes = Some 0; max_steps = Some 80 },
      Some 30, 1 );
  ]

let reports ~jobs =
  List.iter
    (fun (cmd, name, params, budget, master_seed) ->
      Printf.printf "== mm check %s\n" cmd;
      let r = Runner.sweep (scenario name) ~master_seed ?budget ~jobs ~params () in
      Format.printf "%a%!" Runner.pp_report r)
    sweeps

(* ------------------------------------------------------------------ *)
(* (c) Shrinker digests                                                *)

let config_text config =
  String.concat "\n"
    (List.map (fun (k, v) -> k ^ "=" ^ v) (Mm_check.Config.to_lines config))

(* A deterministic stand-in for re-execution: a candidate "still fails"
   iff the MD5 of its rendered config is even. *)
let shrink_line (module Sc : Scenario.S) params ~mode ~seed =
  let cfg = Sc.cfg_of_params params in
  let t = Sc.gen cfg (Rng.create seed) in
  let calls = ref 0 in
  let still_fails t' =
    incr calls;
    let d = Digest.string (config_text (Sc.config cfg t')) in
    Char.code d.[15] land 1 = 0
  in
  let shrunk = Sc.shrink cfg ~still_fails t in
  Printf.printf "%s %s %s seed=%d calls=%d md5=%s\n" Sc.name
    (Backend.name params.Scenario.backend)
    mode seed !calls (md5 (config_text shrunk))

let shrinks () =
  print_endline "== shrink digests";
  List.iter
    (fun sc ->
      List.iter
        (fun (_, backend) ->
          List.iter
            (fun (mode, nemesis, restarts) ->
              let params = small_params backend ~nemesis ~restarts in
              for seed = 0 to 2 do
                shrink_line sc params ~mode ~seed
              done)
            modes)
        Backend.all)
    Registry.all

(* ------------------------------------------------------------------ *)
(* (d) Lossy-link digests                                              *)

let lossy_trials () =
  print_endline "== lossy-link digests";
  let omega = scenario "omega" in
  List.iter
    (fun (_, backend) ->
      List.iter
        (fun (mode, nemesis) ->
          let params = small_params backend ~nemesis ~restarts:false in
          let params =
            { params with variant = Mm_election.Omega.Fair_lossy params.drop }
          in
          for seed = 0 to 2 do
            trial_line omega params ~mode ~seed
          done)
        [ ("plain", false); ("nemesis", true) ])
    Backend.all

let () =
  let jobs =
    match Array.to_list Sys.argv with
    | [ _ ] -> 1
    | [ _; "--jobs"; j ] -> int_of_string j
    | _ -> failwith "usage: golden.exe [--jobs N]"
  in
  per_trial ();
  reports ~jobs;
  shrinks ();
  lossy_trials ()
