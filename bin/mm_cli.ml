(* mm — command-line front end for the m&m model library.

   Subcommands:
     experiment   regenerate experiment tables (E1-E15, A1-A3)
     consensus    run HBO / Ben-Or on a chosen graph with crashes
     paxos        run Ω-driven shared-memory Paxos
     election     run eventual leader election
     mutex        run the mutual-exclusion comparison
     graph        analyze a shared-memory graph (expansion, bounds, cuts) *)

open Cmdliner

module G = Mm_graph.Graph
module B = Mm_graph.Builders
module E = Mm_graph.Expansion
module Cut = Mm_graph.Sm_cut
module Net = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Hbo = Mm_consensus.Hbo
module Decisions = Mm_consensus.Decisions
module Omega = Mm_election.Omega
module Mutex = Mm_mutex.Mutex

(* --- shared graph-family argument --- *)

(* The [family] member on [n] processes, or why there is none: a family
   that does not come in size [n] is an input error, which the commands
   report as a usage error (exit 124) via [Term.term_result']. *)
let make_graph family n seed =
  let rng = Mm_rng.Rng.create seed in
  let need ok msg = if not ok then invalid_arg msg in
  match
    match String.lowercase_ascii family with
    | "edgeless" -> B.edgeless n
    | "ring" -> B.ring n
    | "path" -> B.path n
    | "star" -> B.star n
    | "complete" -> B.complete n
    | "hypercube" ->
      let d = int_of_float (Float.round (Float.log2 (float_of_int n))) in
      need (1 lsl d = n) "hypercube needs n = 2^d";
      B.hypercube d
    | "torus" ->
      let r = int_of_float (sqrt (float_of_int n)) in
      need (r * r = n) "torus needs a square n";
      B.torus ~rows:r ~cols:r
    | "regular3" -> B.random_regular rng ~n ~d:3
    | "regular4" -> B.random_regular rng ~n ~d:4
    | "regular6" -> B.random_regular rng ~n ~d:6
    | "margulis" ->
      let m = int_of_float (sqrt (float_of_int n)) in
      need (m * m = n) "margulis needs a square n";
      B.margulis ~m
    | "barbell" ->
      need (n >= 3) "barbell needs n >= 3";
      B.barbell ~k:(n / 2) ~bridge:(n mod 2)
    | "cliques" ->
      need (n mod 3 = 0) "cliques family uses k=3; n must be divisible by 3";
      B.ring_of_cliques ~cliques:(n / 3) ~k:3
    | "disjoint" ->
      need (n >= 2 && n mod 2 = 0) "disjoint needs an even n >= 2";
      B.disjoint_cliques ~cliques:2 ~k:(n / 2)
    | f -> invalid_arg ("unknown graph family: " ^ f)
  with
  | g -> Ok g
  | exception Invalid_argument msg -> Error msg

let ( let+ ) r f = Result.map f r
let ( let* ) = Result.bind

(* A configuration an algorithm's [run] rejects with [Invalid_argument]
   (e.g. [--impl direct] on a graph with edges) is a usage error too. *)
let rejected f =
  match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

let family_arg default =
  let doc =
    "Shared-memory graph family: edgeless | ring | path | star | complete \
     | hypercube | torus | regular3 | regular4 | regular6 | margulis | \
     barbell | cliques | disjoint."
  in
  Arg.(value & opt string default & info [ "g"; "graph" ] ~docv:"FAMILY" ~doc)

(* A numeric knob that must pass [ok]: out-of-range values are rejected
   at parse time with a clear message instead of surfacing later as an
   Invalid_argument trace.  [ok] is a positive test, so NaN fails it. *)
let number_where ~docv of_string pp ~what ok =
  let parse s =
    match of_string (String.trim s) with
    | Some x when ok x -> Ok x
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv ~docv (parse, pp)

let float_where = number_where ~docv:"X" float_of_string_opt Format.pp_print_float
let int_where = number_where ~docv:"N" int_of_string_opt Format.pp_print_int

(* Counts of processes, steps, domains and ticks must be positive. *)
let pos_int = int_where ~what:"a positive integer" (fun v -> v > 0)

(* Counts that may legitimately be zero (requests, commands, trials). *)
let nat_int = int_where ~what:"a non-negative integer" (fun v -> v >= 0)

(* A drop probability: finite, 0 <= p < 1 (what [Network] accepts).
   Written so that NaN is rejected too. *)
let probability =
  float_where ~what:"a probability in [0, 1)" (fun p -> p >= 0.0 && p < 1.0)

let n_arg default =
  Arg.(value & opt pos_int default & info [ "n" ] ~docv:"N"
         ~doc:"Number of processes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* A crash injection.  Negative pids and steps are rejected here; a pid
   past the process count is rejected by [check_crashes] once [n] is
   known. *)
let crash_conv =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char ':' s) with
    | [ Some pid; Some step ] when pid >= 0 && step >= 0 -> Ok (pid, step)
    | [ Some pid ] when pid >= 0 -> Ok (pid, 0)
    | _ ->
      Error
        (`Msg
          (Printf.sprintf "expected PID or PID:STEP (non-negative), got %S" s))
  in
  Arg.conv ~docv:"PID:STEP"
    (parse, fun ppf (pid, step) -> Format.fprintf ppf "%d:%d" pid step)

let crashes_arg =
  let doc = "Crash injections as pid:step pairs, e.g. --crash 0:0 --crash 2:500." in
  Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"PID:STEP" ~doc)

let check_crashes ~n crashes =
  match List.find_opt (fun (pid, _) -> pid >= n) crashes with
  | Some (pid, _) ->
    Error (Printf.sprintf "--crash pid %d out of range for %d processes" pid n)
  | None -> Ok ()

(* Omega's notification mechanism; the lossy variant's drop probability
   comes from --drop. *)
let variant_arg ~doc =
  let variants = [ ("reliable", `Reliable); ("lossy", `Lossy) ] in
  Arg.(value & opt (enum variants) `Reliable & info [ "variant" ] ~docv:"V" ~doc)

let omega_variant ~drop = function
  | `Reliable -> Omega.Reliable
  | `Lossy -> Omega.Fair_lossy drop

let impl_arg =
  let impl =
    Arg.enum
      [ ("registers", Hbo.Registers); ("trusted", Hbo.Trusted); ("direct", Hbo.Direct) ]
  in
  Arg.(value & opt impl Hbo.Trusted & info [ "impl" ] ~docv:"IMPL"
         ~doc:"Consensus-object implementation: registers | trusted | direct.")

(* --- experiment --- *)

let experiment_cmd =
  let experiment =
    let parse id =
      match Mm_bench.Experiments.find id with
      | Some f -> Ok (String.uppercase_ascii id, f)
      | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown experiment %S, expected one of %s" id
               (String.concat ", " (List.map fst Mm_bench.Experiments.all))))
    in
    Arg.conv ~docv:"ID" (parse, fun ppf (id, _) -> Format.pp_print_string ppf id)
  in
  let ids =
    Arg.(value & pos_all experiment [] & info [] ~docv:"ID"
           ~doc:"Experiment ids (default: all).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sizes and seed counts.")
  in
  let run ids quick =
    let scale = if quick then `Quick else `Full in
    let selected = if ids = [] then Mm_bench.Experiments.all else ids in
    List.iter (fun (_, f) -> Mm_bench.Table.print (f scale)) selected
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate experiment tables (see DESIGN.md).")
    Term.(const run $ ids $ quick)

(* --- consensus --- *)

let consensus_cmd =
  let run family n seed impl crashes =
    let* () = check_crashes ~n crashes in
    let* graph = make_graph family n seed in
    let inputs = Array.init n (fun i -> i mod 2) in
    let+ o =
      rejected (fun () -> Hbo.run ~seed ~impl ~graph ~crashes ~inputs ())
    in
    Format.printf "graph: %s %a   crashes: %d@." family G.pp graph
      (List.length crashes);
    Format.printf "stopped: %a after %d steps@." Engine.pp_stop_reason
      o.Hbo.run.reason o.Hbo.run.steps;
    Array.iteri
      (fun i d ->
        Format.printf "  p%d%s: %s@." i
          (if o.Hbo.run.crashed.(i) then " (crashed)" else "")
          (match d with
          | Some v -> Printf.sprintf "decided %d (round %s, step %s)" v
                        (Mm_bench.Table.fmt_opt_int o.Hbo.decide_round.(i))
                        (Mm_bench.Table.fmt_opt_int o.Hbo.decide_step.(i))
          | None -> "undecided"))
      o.Hbo.decisions;
    Format.printf "agreement: %b  validity: %b  all correct decided: %b@."
      (Decisions.agreement o.Hbo.decisions)
      (Decisions.validity ~inputs o.Hbo.decisions)
      (Decisions.all_correct_decided ~crashed:o.Hbo.run.crashed
         o.Hbo.decisions);
    Format.printf "messages: %d  registers: %d  mem ops: %d  coins: %d@."
      o.Hbo.run.net.Net.sent o.Hbo.registers
      (Mem.total_ops o.Hbo.run.mem)
      o.Hbo.run.coin_flips
  in
  Cmd.v
    (Cmd.info "consensus" ~doc:"Run HBO consensus (Figure 2) on a graph.")
    Term.(term_result' ~usage:true
            (const run $ family_arg "ring" $ n_arg 8 $ seed_arg $ impl_arg
             $ crashes_arg))

(* --- paxos --- *)

let paxos_cmd =
  let module Paxos = Mm_consensus.Paxos in
  let oracle_arg =
    let parse s =
      match String.split_on_char ':' (String.lowercase_ascii s) with
      | [ "heartbeat" ] -> Ok Paxos.Heartbeat
      | [ "anarchy" ] -> Ok Paxos.Anarchy
      | [ "static"; pid ] when int_of_string_opt pid <> None ->
        Ok (Paxos.Static (int_of_string pid))
      | _ -> Error (`Msg (Printf.sprintf "unknown oracle %S" s))
    in
    let print ppf = function
      | Paxos.Heartbeat -> Format.pp_print_string ppf "heartbeat"
      | Paxos.Anarchy -> Format.pp_print_string ppf "anarchy"
      | Paxos.Static pid -> Format.fprintf ppf "static:%d" pid
    in
    Arg.(value & opt (conv (parse, print)) Paxos.Heartbeat
         & info [ "oracle" ] ~docv:"O"
             ~doc:"Leader oracle: heartbeat | static:<pid> | anarchy.")
  in
  let run oracle n seed crashes =
    let* () = check_crashes ~n crashes in
    let inputs = Array.init n (fun i -> i * 10) in
    let+ o =
      rejected (fun () -> Paxos.run ~seed ~oracle ~n ~crashes ~inputs ())
    in
    Format.printf "stopped: %a after %d steps, max ballot %d@."
      Engine.pp_stop_reason o.Paxos.run.reason o.Paxos.run.steps
      o.Paxos.max_ballot;
    Array.iteri
      (fun i d ->
        Format.printf "  p%d%s: %s@." i
          (if o.Paxos.run.crashed.(i) then " (crashed)" else "")
          (match d with
          | Some v -> Printf.sprintf "decided %d" v
          | None -> "undecided"))
      o.Paxos.decisions;
    Format.printf "agreement: %b  validity: %b  all correct decided: %b@."
      (Decisions.agreement o.Paxos.decisions)
      (Decisions.validity ~inputs o.Paxos.decisions)
      (Decisions.all_correct_decided ~crashed:o.Paxos.run.crashed
         o.Paxos.decisions);
    Format.printf "messages: %d  mem ops: %d@." o.Paxos.run.net.Net.sent
      (Mem.total_ops o.Paxos.run.mem)
  in
  Cmd.v
    (Cmd.info "paxos"
       ~doc:"Run Ω-driven shared-memory Paxos (Disk-Paxos style).")
    Term.(term_result' ~usage:true
            (const run $ oracle_arg $ n_arg 5 $ seed_arg $ crashes_arg))

(* --- smr --- *)

let smr_cmd =
  let module Log = Mm_smr.Replicated_log in
  let cmds_arg =
    Arg.(value & opt nat_int 3 & info [ "commands" ] ~docv:"K"
           ~doc:"Commands issued per process.")
  in
  let run n seed cmds crashes =
    let+ () = check_crashes ~n crashes in
    let o =
      Log.run ~seed ~n ~commands_per_proc:cmds ~crashes ~max_steps:5_000_000 ()
    in
    Format.printf
      "stopped: %a after %d steps; %d slots, %d duplicate slot(s)@."
      Engine.pp_stop_reason o.Log.run.reason o.Log.run.steps o.Log.slots_used
      o.Log.duplicate_slots;
    Format.printf "all committed: %b   consistent: %b@." o.Log.all_committed
      o.Log.consistent;
    Format.printf "messages: %d   mem ops: %d@." o.Log.run.net.Net.sent
      (Mem.total_ops o.Log.run.mem);
    Array.iteri
      (fun i log ->
        Format.printf "  p%d%s log: %s@." i
          (if o.Log.run.crashed.(i) then " (crashed)" else "")
          (String.concat " "
             (List.map
                (fun (s, c) ->
                  Format.asprintf "%d:%a" s Log.pp_command c)
                log)))
      o.Log.logs
  in
  Cmd.v
    (Cmd.info "smr" ~doc:"Run the replicated log (multi-decree consensus).")
    Term.(term_result' ~usage:true
            (const run $ n_arg 4 $ seed_arg $ cmds_arg $ crashes_arg))

(* --- kv: the sharded service's latency harness --- *)

let kv_cmd =
  let module Kv = Mm_kv.Kv in
  let module W = Mm_kv.Workload in
  let module H = Mm_kv.Histogram in
  let shards_arg =
    Arg.(value & opt pos_int 2 & info [ "shards" ] ~docv:"S"
           ~doc:"Shard count (one replicated-log group each).")
  in
  let replicas_arg =
    Arg.(value & opt pos_int 3 & info [ "replicas" ] ~docv:"R"
           ~doc:"Replicas per shard.")
  in
  let clients_arg =
    Arg.(value & opt pos_int 300 & info [ "clients" ] ~docv:"C"
           ~doc:"Open-loop client population size.")
  in
  let ops_arg =
    Arg.(value & opt nat_int 400 & info [ "ops" ] ~docv:"K"
           ~doc:"Total requests injected.")
  in
  let theta_arg =
    let skew =
      float_where ~what:"a finite skew >= 0" (fun t ->
          Float.is_finite t && t >= 0.0)
    in
    Arg.(value & opt skew 0.9 & info [ "theta" ] ~docv:"T"
           ~doc:"Zipf skew of the key popularity distribution (0 = uniform).")
  in
  let keys_arg =
    Arg.(value & opt pos_int 128 & info [ "keys" ] ~docv:"K"
           ~doc:"Key-space size.")
  in
  let gap_arg =
    let gap =
      float_where ~what:"a finite gap > 0" (fun g -> Float.is_finite g && g > 0.0)
    in
    Arg.(value & opt gap 40.0 & info [ "gap" ] ~docv:"G"
           ~doc:"Mean inter-arrival gap in engine ticks (Poisson arrivals).")
  in
  let reads_arg =
    let fraction =
      float_where ~what:"a fraction in [0, 1]" (fun f -> f >= 0.0 && f <= 1.0)
    in
    Arg.(value & opt fraction 0.8 & info [ "reads" ] ~docv:"F"
           ~doc:"Fraction of requests that are gets.")
  in
  let max_steps_arg =
    Arg.(value & opt pos_int 600_000 & info [ "max-steps" ] ~docv:"S"
           ~doc:"Step budget.")
  in
  let no_local_reads_arg =
    Arg.(value & flag & info [ "no-local-reads" ]
           ~doc:"Disable the \\$(i,5.3) leader fast path; decide gets \
                 through the log like puts.")
  in
  let timeout_arg =
    Arg.(value & opt (some pos_int) None & info [ "timeout" ] ~docv:"D"
           ~doc:"Per-op client deadline in engine ticks: a request not \
                 completed within D ticks of its arrival counts as a \
                 timeout, drops out of the latency histograms, and its \
                 client gives up (the op may still take effect — \
                 at-least-once).")
  in
  let run shards replicas clients ops theta keys gap reads max_steps
      no_local_reads timeout seed =
    let spec =
      { W.clients; ops; mean_gap = gap; key_space = keys; theta;
        read_fraction = reads }
    in
    let+ o =
      rejected (fun () ->
          let workload = W.gen (Mm_rng.Rng.create seed) spec ~replicas in
          Kv.run ~seed ~max_steps ?op_timeout:timeout
            ~local_reads:(not no_local_reads) ~shards ~replicas ~workload ())
    in
    Format.printf
      "stopped: %a after %d steps; %d/%d completed, consistent: %b, \
       local-reads: %b@."
      Engine.pp_stop_reason o.Kv.run.reason o.Kv.run.steps o.Kv.completed ops
      o.Kv.consistent o.Kv.local_reads;
    (match o.Kv.op_timeout with
    | Some d ->
      Format.printf "timeouts: %d/%d (%.2f%%) at deadline %d ticks@."
        o.Kv.timeouts ops
        (100.0 *. float_of_int o.Kv.timeouts /. float_of_int (max 1 ops))
        d
    | None -> ());
    Format.printf "messages: %d   mem ops: %d   duplicate applies: %d@."
      o.Kv.run.net.Net.sent
      (Mem.total_ops o.Kv.run.mem)
      o.Kv.duplicate_applies;
    Format.printf "shard  op   %6s %6s %6s %6s %8s %6s  ops/kstep@." "p50"
      "p99" "p999" "max" "n" "t/o";
    (* Expired ops never reach the histograms, so the timeout column is
       counted from the op records directly. *)
    let expired_in s want_get =
      Array.fold_left
        (fun acc (rc : Kv.op_record) ->
          let is_get =
            match rc.Kv.req.W.op with W.Get -> true | W.Put _ -> false
          in
          if
            rc.Kv.expired && is_get = want_get
            && rc.Kv.req.W.key mod shards = s
          then acc + 1
          else acc)
        0 o.Kv.ops
    in
    let cell h ~timeouts =
      let q p = match H.percentile h p with Some v -> v | None -> 0 in
      Format.printf "%6d %6d %6d %6d %8d %6d" (q 50.0) (q 99.0) (q 99.9)
        (Option.value (H.max_value h) ~default:0)
        (H.count h) timeouts
    in
    for s = 0 to shards - 1 do
      Format.printf "%5d  get  " s;
      cell o.Kv.get_hist.(s) ~timeouts:(expired_in s true);
      Format.printf "  %9.1f@." (Kv.shard_throughput o ~shard:s);
      Format.printf "%5d  put  " s;
      cell o.Kv.put_hist.(s) ~timeouts:(expired_in s false);
      Format.printf "@."
    done
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:"Run the sharded KV service under open-loop load and report \
             per-shard latency percentiles (engine ticks).")
    Term.(term_result' ~usage:true
            (const run $ shards_arg $ replicas_arg $ clients_arg $ ops_arg
             $ theta_arg $ keys_arg $ gap_arg $ reads_arg $ max_steps_arg
             $ no_local_reads_arg $ timeout_arg $ seed_arg))

(* --- election --- *)

let election_cmd =
  let drop_arg =
    Arg.(value & opt probability 0.3 & info [ "drop" ] ~docv:"P"
           ~doc:"Drop probability for the lossy variant.")
  in
  let run variant drop n seed crashes =
    let* () = check_crashes ~n crashes in
    (* ensure at least one never-crashed process is timely *)
    let crashed_pids = List.map fst crashes in
    let+ candidate =
      match
        List.find_opt (fun p -> not (List.mem p crashed_pids)) (List.init n Fun.id)
      with
      | Some p -> Ok p
      | None -> Error "every process crashed; leader election needs one correct"
    in
    let variant = omega_variant ~drop variant in
    let timely = [ (0, 4); (candidate, 4) ] in
    let o = Omega.run ~seed ~timely ~crashes ~variant ~n () in
    Format.printf "Ω holds: %b  agreed leader: %s  converged at step %d@."
      (Omega.holds o)
      (Mm_bench.Table.fmt_opt_int o.Omega.agreed_leader)
      o.Omega.last_change_step;
    Format.printf "leadership changes: %d  steady-state messages: %d@."
      o.Omega.total_changes o.Omega.window_net.Net.sent;
    Array.iteri
      (fun i c ->
        Format.printf "  p%d%s window mem: %a@." i
          (if o.Omega.run.crashed.(i) then " (crashed)" else "")
          Mem.pp_counters c)
      o.Omega.window_mem
  in
  Cmd.v
    (Cmd.info "election" ~doc:"Run eventual leader election (Figures 3-5).")
    Term.(term_result' ~usage:true
            (const run $ variant_arg ~doc:"reliable | lossy." $ drop_arg
             $ n_arg 4 $ seed_arg $ crashes_arg))

(* --- mutex --- *)

let mutex_cmd =
  let algo_arg =
    let bakery = ("bakery", Mutex.Bakery)
    and local = ("local-spin", Mutex.Local_spin)
    and mm = ("m&m", Mutex.Mm) in
    let all = [ bakery; local; mm ] in
    let algos =
      [
        ("bakery", [ bakery ]); ("local", [ local ]); ("mm", [ mm ]);
        ("all", all);
      ]
    in
    Arg.(value & opt (enum algos) all & info [ "algo" ] ~docv:"A"
           ~doc:"bakery | local | mm | all.")
  in
  let entries_arg =
    Arg.(value & opt nat_int 5 & info [ "entries" ] ~docv:"K"
           ~doc:"Critical-section entries per process.")
  in
  let print_mutex name (o : Mutex.outcome) =
    Format.printf
      "%s: safe=%b entries=%d wait-reads/entry=%.2f messages=%d steps=%d@."
      name
      (o.Mutex.safety_violations = 0)
      (Array.fold_left ( + ) 0 o.Mutex.entries)
      (Mutex.wait_reads_per_entry o)
      o.Mutex.run.net.Net.sent o.Mutex.run.steps
  in
  let run algos n seed entries =
    List.iter
      (fun (name, algo) ->
        print_mutex name (Mutex.run ~algo ~seed ~n ~entries ()))
      algos
  in
  Cmd.v
    (Cmd.info "mutex" ~doc:"Compare bakery (remote-spin), local-spin and m&m (no-spin) locks.")
    Term.(const run $ algo_arg $ n_arg 4 $ seed_arg $ entries_arg)

(* --- check: schedule exploration + property monitoring --- *)

let check_cmd =
  let module Runner = Mm_check.Runner in
  let module Scenario = Mm_check.Scenario in
  let module Registry = Mm_check.Registry in
  let module Pool = Mm_check.Pool in
  let jobs_arg =
    Arg.(value & opt (some pos_int) None
         & info [ "jobs"; "j" ] ~docv:"J" ~env:(Cmd.Env.info "MM_JOBS")
             ~doc:"Domains to fan trials out over. Defaults to \\$(b,MM_JOBS) \
                   if set, else one less than the machine's recommended \
                   domain count (min 1). Reports are identical for every \
                   J: the lowest-index violation wins and shrinking is \
                   single-threaded.")
  in
  (* The scenario enum is derived from the registry: registering a new
     Scenario.S is all it takes to appear here and in --help. *)
  let scenario_choices =
    List.map
      (fun ((module S : Scenario.S) as sc) -> (S.name, sc))
      Registry.all
  in
  let scenario_arg =
    let scenario_conv = Arg.enum scenario_choices in
    let doc =
      Printf.sprintf "Scenario to check: %s (see SCENARIOS below)."
        (Arg.doc_alts_enum ~quoted:true scenario_choices)
    in
    Arg.(value & pos 0 scenario_conv (List.assoc "hbo" scenario_choices)
         & info [] ~docv:"SCENARIO" ~doc)
  in
  let budget_arg =
    Arg.(value & opt (some nat_int) None & info [ "budget" ] ~docv:"TRIALS"
           ~doc:"Randomized trials to run (default: the scenario's own, \
                 e.g. 200 for hbo, 50 for omega).")
  in
  let max_crashes_arg =
    Arg.(value & opt (some nat_int) None & info [ "crashes" ] ~docv:"F"
           ~doc:"Crash budget per trial. Default: the Thm 4.3 bound of the \
                 graph for hbo (sweeps stay inside the tolerance envelope; \
                 raise it to hunt for stalls), n-2 for omega, n-1 for \
                 paxos/smr; under --backend emulated, defaults are capped \
                 to a minority (explicit values are not — that is how you \
                 probe past the emulation's resilience bound).")
  in
  (* Backend choices come straight from Mem.Backend.all, the single
     source of truth: adding a backend there updates the flag, its
     --help text and every scenario at once. *)
  let backend_arg =
    let doc =
      Printf.sprintf
        "Memory backend every scenario runs on: %s. \\$(b,native) is the \
         paper's crash-surviving m&m registers; \\$(b,emulated) realises \
         each register as an ABD quorum round over the network — register \
         ops cost messages, locality is forfeited, and crash tolerance \
         drops to a minority."
        (Arg.doc_alts_enum ~quoted:true Mem.Backend.all)
    in
    Arg.(value & opt (enum Mem.Backend.all) Mem.Backend.Native
         & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let max_steps_arg =
    Arg.(value & opt (some pos_int) None & info [ "max-steps" ] ~docv:"S"
           ~doc:"Step budget per trial.")
  in
  let drop_arg =
    Arg.(value & opt probability 0.3 & info [ "drop" ] ~docv:"P"
           ~doc:"Max drop probability swept for omega's lossy variant.")
  in
  let expect_stall_arg =
    Arg.(value & flag & info [ "expect-stall" ]
           ~doc:"Check the Thm 4.4 expected-failure mode instead: crash the \
                 graph's SM-cut boundary, delay cross-cut messages, and \
                 report a violation if consensus terminates anyway.")
  in
  let replay_arg =
    Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"SEED"
           ~doc:"Re-run the single trial with this trial seed (as reported \
                 by a violation) instead of sweeping.")
  in
  let trace_arg =
    Arg.(value & opt nat_int 30 & info [ "trace" ] ~docv:"K"
           ~doc:"Trailing engine-trace events kept per trial for \
                 counterexample reports.")
  in
  let entries_arg =
    Arg.(value & opt (some nat_int) None & info [ "entries" ] ~docv:"K"
           ~doc:"Mutex: critical-section entries per process (default: \
                 drawn per trial).")
  in
  let commands_arg =
    Arg.(value & opt (some nat_int) None & info [ "commands" ] ~docv:"K"
           ~doc:"Smr: commands per process (default: drawn per trial).")
  in
  let nemesis_arg =
    Arg.(value & flag & info [ "nemesis" ]
           ~doc:"Draw a staged fault-injection timeline per trial                  (partitions, link degradation, freeze/thaw) that always                  heals, and run the graceful-degradation monitors on top                  of the scenario's own.")
  in
  let restarts_arg =
    Arg.(value & flag & info [ "restarts" ]
           ~doc:"Draw crash-then-restart windows per trial: the victim \
                 loses its volatile state, recovers from the \
                 crash-surviving registers, and the durability / \
                 recovery-liveness monitors run on top of the scenario's \
                 own. Honoured by the scenarios whose processes carry \
                 recovery closures (omega, paxos, smr, kv); the rest \
                 ignore the flag. Composes with --nemesis; restart draws \
                 come last, so pre-restart seeds replay unchanged.")
  in
  let settle_arg =
    Arg.(value & opt (some pos_int) None & info [ "settle" ] ~docv:"S"
           ~doc:"Omega/kv + --nemesis: steps after the last fault clears \
                 within which leadership must stop changing (omega; \
                 default: warmup / 4) or every pre-heal request must \
                 complete (kv; default: max-steps / 2). Must be positive.")
  in
  let warmup_arg =
    Arg.(value & opt (some pos_int) None & info [ "warmup" ] ~docv:"S"
           ~doc:"Omega: each trial's step cap is warmup + window \
                 (default: 60000 + 10000); nemesis and restart windows \
                 clear within the first quarter and half of the warmup. \
                 A trial whose window has held ends before the cap; one \
                 whose leadership keeps changing runs to it and is judged \
                 on its last --window steps. Must be positive.")
  in
  let window_arg =
    Arg.(value & opt (some pos_int) None & info [ "window" ] ~docv:"W"
           ~doc:"Omega: steps the steady-state window must hold (default: \
                 10000). It opens once the trial's last scheduled fault \
                 (crash, nemesis heal, restart-window end) has passed and \
                 restarts after every leader-output change at a correct \
                 process and, on trials without crashes or restarts, \
                 after every protocol send; the trial ends once it has \
                 held W steps. Must be positive.")
  in
  let chunk_arg =
    Arg.(value & opt (some pos_int) None & info [ "chunk" ] ~docv:"C"
           ~doc:"Consecutive trial indices a sweep worker claims per \
                 atomic operation (default: adaptive). Must be positive; \
                 report-invisible, like --jobs.")
  in
  let shards_arg =
    Arg.(value & opt (some pos_int) None & info [ "shards" ] ~docv:"S"
           ~doc:"Kv: shard count, each an independent replicated-log \
                 group of -n replicas (default: drawn per trial).")
  in
  let clients_arg =
    Arg.(value & opt (some pos_int) None & info [ "clients" ] ~docv:"C"
           ~doc:"Kv: open-loop client population size (default: drawn \
                 per trial).")
  in
  let no_local_reads_arg =
    Arg.(value & flag & info [ "no-local-reads" ]
           ~doc:"Kv: disable the \\$(i,5.3) fast path (leader serving \
                 gets from its decided-slot registers) and push every \
                 get through the replicated log.")
  in
  let report_domains_arg =
    Arg.(value & flag & info [ "report-domains" ]
           ~doc:"Print per-domain claimed/executed/dedup-hit counts after \
                 the report, so a scaling regression localizes to a domain. \
                 Diagnostic only: unlike the report, these counts vary with \
                 --jobs and scheduling.")
  in
  let run (module S : Scenario.S) family n seed budget max_crashes max_steps
      backend impl variant drop expect_stall replay trace jobs entries
      commands nemesis restarts settle warmup window chunk shards clients
      no_local_reads report_domains =
    let* graph = make_graph family n seed in
    let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
    let variant = omega_variant ~drop variant in
    let params =
      {
        Scenario.default_params with
        graph = Some graph;
        family;
        n;
        backend;
        impl;
        variant;
        drop;
        expect_stall;
        max_crashes;
        max_steps;
        entries;
        commands;
        trace_tail = trace;
        nemesis;
        restarts;
        settle;
        warmup;
        window;
        shards;
        clients;
        local_reads = not no_local_reads;
      }
    in
    (* Resolving the parameters can reject them (e.g. --expect-stall on a
       graph with no SM-cut): that is a usage error, not a crash. *)
    let* preamble =
      match Runner.preamble (module S) ~params with
      | line -> Ok line
      | exception Invalid_argument msg -> Error msg
    in
    Option.iter (Format.printf "%s@.") preamble;
    let report, stats =
      match replay with
      | Some trial_seed ->
        (Runner.replay (module S) ~params ~trial_seed (), [||])
      | None ->
        Runner.sweep_stats (module S) ~master_seed:seed ?budget ~jobs ?chunk
          ~params ()
    in
    Format.printf "%a" Runner.pp_report report;
    if report_domains && Array.length stats > 0 then
      Format.printf "%a" Runner.pp_domain_stats stats;
    if report.Runner.violation <> None then exit 1;
    Ok ()
  in
  let man =
    `S "SCENARIOS"
    :: `P "Registered check targets (one Scenario module each):"
    :: List.map
         (fun ((module S : Scenario.S)) -> `I (S.name, S.doc))
         Registry.all
  in
  Cmd.v
    (Cmd.info "check" ~man
       ~doc:"Model-check an algorithm: sweep randomized schedules and faults \
             from one seed, monitor the paper's theorems, and report a \
             replayable shrunk counterexample (exit 1) on violation.")
    Term.(term_result' ~usage:true
            (const run $ scenario_arg $ family_arg "complete" $ n_arg 6
             $ seed_arg $ budget_arg $ max_crashes_arg $ max_steps_arg
             $ backend_arg $ impl_arg
             $ variant_arg ~doc:"Omega notification mechanism: reliable | lossy."
             $ drop_arg $ expect_stall_arg $ replay_arg $ trace_arg $ jobs_arg
             $ entries_arg $ commands_arg $ nemesis_arg $ restarts_arg
             $ settle_arg $ warmup_arg $ window_arg $ chunk_arg $ shards_arg
             $ clients_arg
             $ no_local_reads_arg $ report_domains_arg))

(* --- graph analysis --- *)

let graph_cmd =
  let run family n seed =
    let+ g = make_graph family n seed in
    Format.printf "%s: %a, max degree %d, connected: %b@." family G.pp g
      (G.max_degree g) (G.is_connected g);
    let n = G.order g in
    if n <= 24 then begin
      let h = E.vertex_expansion_exact g in
      Format.printf "vertex expansion h(G) = %.4f (exact)@." h;
      Format.printf "Thm 4.3 bound: HBO tolerates f* = %d of %d@."
        (E.ft_bound ~h ~n) n
    end
    else begin
      let rng = Mm_rng.Rng.create seed in
      let hu = E.vertex_expansion_sampled rng g ~samples:2000 in
      Format.printf "vertex expansion h(G) <= %.4f (sampled)@." hu
    end;
    (match E.spectral_lower_bound g with
    | Some lo -> Format.printf "spectral lower bound: h(G) >= %.4f@." lo
    | None -> ());
    if n <= 22 then
      Format.printf "true fault tolerance (represented majority): %d@."
        (E.max_guaranteed_f g);
    match Cut.min_f_with_cut g with
    | Some f ->
      let cut = Option.get (Cut.find g ~f) in
      Format.printf "SM-cut exists at f = %d: %a (Thm 4.4 impossibility)@." f
        Cut.pp cut
    | None -> Format.printf "no SM-cut found up to f = n@."
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Analyze a shared-memory graph: expansion, fault-tolerance bounds, SM-cuts.")
    Term.(term_result' ~usage:true
            (const run $ family_arg "ring" $ n_arg 12 $ seed_arg))

let () =
  let info =
    Cmd.info "mm" ~version:"1.0.0"
      ~doc:"The m&m (message-and-memory) model: consensus and leader election \
            from PODC'18 \"Passing Messages while Sharing Memory\"."
  in
  (* cmdliner renders the single-char "n" option as [-n] only; accept the
     natural [--n 6] / [--n=6] spellings too. *)
  let argv =
    Array.map
      (fun a ->
        if String.equal a "--n" then "-n"
        else if String.length a > 4 && String.equal (String.sub a 0 4) "--n="
        then "-n" ^ String.sub a 4 (String.length a - 4)
        else a)
      Sys.argv
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [
            experiment_cmd; consensus_cmd; paxos_cmd; smr_cmd; kv_cmd;
            election_cmd; mutex_cmd; graph_cmd; check_cmd;
          ]))
