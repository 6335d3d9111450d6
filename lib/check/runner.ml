module Rng = Mm_rng.Rng
module Trace = Mm_sim.Trace

type counterexample = {
  trial : int;
  trial_seed : int;
  property : string;
  detail : string;
  config : Config.t;
  shrunk : Config.t;
  trace : Mm_sim.Trace.event list;
}

type report = {
  algo : string;
  budget : int;
  trials_run : int;
  distinct_trials : int;
  deduped : int;
  violation : counterexample option;
}

type domain_stat = { claimed : int; executed : int; dedup_hits : int }

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)

let pp_counterexample fmt cx =
  Format.fprintf fmt "VIOLATION at trial %d (seed %d)@." cx.trial
    cx.trial_seed;
  Format.fprintf fmt "  property: %s@." cx.property;
  Format.fprintf fmt "  detail:   %s@." cx.detail;
  Format.fprintf fmt "  config:@.";
  Config.pp fmt cx.config;
  (match cx.shrunk with
  | [] -> ()
  | lines ->
    Format.fprintf fmt "  shrunk (minimal reproducer):@.";
    Config.pp fmt lines);
  (match cx.trace with
  | [] -> ()
  | trace ->
    Format.fprintf fmt "  trailing trace (last %d event(s)):@."
      (List.length trace);
    List.iter (fun e -> Format.fprintf fmt "    %a@." Trace.pp_event e) trace);
  Format.fprintf fmt "  replay: rerun with --replay %d to reproduce@."
    cx.trial_seed

let pp_domain_stats fmt stats =
  Format.fprintf fmt "per-domain sweep stats (%d domain(s)):@."
    (Array.length stats);
  Array.iteri
    (fun w s ->
      Format.fprintf fmt "  d%d: claimed %d  executed %d  dedup-hits %d@." w
        s.claimed s.executed s.dedup_hits)
    stats

let pp_report fmt r =
  match r.violation with
  | None ->
    Format.fprintf fmt
      "%s: %d/%d trial(s) passed, no violation found (%d distinct, %d \
       deduped)@."
      r.algo r.trials_run r.budget r.distinct_trials r.deduped
  | Some cx ->
    Format.fprintf fmt
      "%s: violation found after %d trial(s) (%d distinct, %d deduped)@.%a"
      r.algo r.trials_run r.distinct_trials r.deduped pp_counterexample cx

(* ------------------------------------------------------------------ *)
(* The generic sweep engine                                           *)

(* 62-bit non-negative trial seeds: the full width [Rng.create] accepts
   (minus the sign and one bit of slack for the CLI's plain-int
   parsing), so trial generation gets the master stream's entropy
   instead of a 30-bit slice of it. *)
let trial_seed_of rng = Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2)

(* Trial [i]'s seed is the master stream's draw [i], computed directly:
   a sweep that stops at its first hit draws no seed past it, and any
   domain can take any index. *)
let nth_trial_seed master i = trial_seed_of (Rng.jump master i)

(* The effective worker-domain ceiling for parallel sweeps.  Read per
   sweep so tests (and operators) can adjust it between runs. *)
let max_workers () =
  match Sys.getenv_opt "MM_CHECK_MAX_DOMAINS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some k when k >= 1 -> k
    | Some _ | None -> Stdlib.Domain.recommended_domain_count ())
  | None -> Stdlib.Domain.recommended_domain_count ()

(* Distinct-trial accounting over the generation fingerprints of trials
   [0, trials_run).  Computed from the recorded fingerprint array after
   the sweep, never from the racy execution-skipping decisions, so the
   reported numbers are identical for every [jobs]/[chunk] setting. *)
let count_distinct fps trials_run =
  let seen = Hashtbl.create (2 * trials_run) in
  let d = ref 0 in
  for i = 0 to trials_run - 1 do
    if not (Hashtbl.mem seen fps.(i)) then begin
      Hashtbl.add seen fps.(i) ();
      incr d
    end
  done;
  !d

(* The worker-domain minor-heap size for parallel sweeps, in words.  In
   OCaml 5 every minor collection stops the world across all domains,
   so a sweeping domain wants its clean trials to fit inside its own
   minor heap: the default (2^20 words = 8 MiB on 64-bit, 4x the 5.1
   default) holds a whole default chunk of small trials and several
   20k-step hbo trials (~240k words each at the ~12 words/step engine
   floor, from Gc.minor_words over a short abd sweep) between
   collections.  MM_CHECK_MINOR_HEAP overrides it; anything below the
   runtime's 64k-word floor falls back to the default. *)
let minor_heap_words () =
  let default = 1 lsl 20 in
  match Sys.getenv_opt "MM_CHECK_MINOR_HEAP" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some w when w >= 1 lsl 16 -> w
    | Some _ | None -> default)
  | None -> default

(* Grow the calling domain's minor heap to [words] (never shrink it).
   Purely a GC-pacing knob: allocation is unchanged, so sweep reports
   are identical with any setting. *)
let shape_minor_heap ~words =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < words then
    Gc.set { g with Gc.minor_heap_size = words }

(* The domain-local trial state of one sweep worker.  Nothing in here is
   ever touched by another domain while the pool runs: the dedup memo is
   private (a duplicate first seen by two different domains executes in
   both — wasted work, never a wrong number), the (index, fingerprint)
   log is merged into the shared per-trial array only after the pool has
   joined, and [hit] stashes this domain's lowest-index violating
   execution so the counterexample is packaged from it instead of
   re-running the trial.  Between claiming a chunk and reporting, a
   worker therefore shares no mutable state with its siblings. *)
type 'hit wctx = {
  memo : (int, unit) Hashtbl.t;  (* fingerprints THIS domain saw clean *)
  mutable logged : (int * int) list;  (* (trial index, fingerprint) *)
  mutable executed : int;
  mutable dedup_hits : int;
  mutable hit : (int * 'hit) option;  (* lowest violating index + its run *)
}

(* Driving one scenario: a trial is gen + execute + monitors, and a
   violating trial additionally delta-debugs itself through the
   scenario's [shrink], re-running candidate trials and keeping a
   reduction only if the same property still fails. *)
module Drive (Sc : Scenario.S) = struct
  (* One violating execution: the trial, its outcome and the first
     failing monitor's (property, detail). *)
  type hit = Sc.trial * Sc.outcome * (string * string)

  (* Generate the trial and digest the full draw stream.  Equal
     fingerprints mean byte-identical draw streams, hence identical
     trials, hence identical outcomes — the soundness premise of the
     dedup memo. *)
  let gen_fp cfg ~salt ~trial_seed =
    let rng = Rng.create trial_seed in
    Rng.fingerprint_start rng;
    let t = Sc.gen cfg rng in
    (t, Rng.fingerprint rng lxor salt)

  let check cfg t =
    let o = Sc.execute cfg t in
    match Monitor.first_failure (Sc.monitors cfg t) o with
    | None -> None
    | Some failure -> Some ((t, o, failure) : hit)

  (* Package an already-executed violating trial: shrink it (the only
     executions this costs are the candidates') and keep the detecting
     run's trace. *)
  let counterexample cfg ~trial ~trial_seed ((t, o, (property, detail)) : hit)
      =
    let still_fails cand =
      match check cfg cand with
      | Some (_, _, (p, _)) -> String.equal p property
      | None -> false
    in
    {
      trial;
      trial_seed;
      property;
      detail;
      config = Sc.config cfg t;
      shrunk = Sc.shrink cfg ~still_fails t;
      trace = Sc.trace o;
    }

  let run_trial cfg ~trial ~trial_seed =
    check cfg (Sc.gen cfg (Rng.create trial_seed))
    |> Option.map (counterexample cfg ~trial ~trial_seed)
end

(* Sweeps come in two phases so that fan-out stays deterministic:
   detection runs gen + execute + monitors (possibly in parallel) on
   every trial seed, each domain stashing its lowest-index violating
   execution; packaging then builds the counterexample from the stash
   of the lowest index among all hits (not the first to complete) —
   its config and trace come from the detecting execution, and
   delta-debug shrinking runs single-threaded on it — so a hunt runs
   its violating trial once and reports are bit-for-bit identical at
   every [jobs].  [run_trial] (gen + execute + package on a seed) is
   only for {!replay}.  Every sweep runs detection through the domain
   pool (with one worker it runs inline on the calling domain).

   Every trial builds a fresh engine.  Clean trials whose generation
   fingerprint was already seen clean {e by the same domain} are
   counted but not re-executed; the dedup tables are domain-private
   (zero cross-domain traffic on the trial path) and merged after the
   pool joins, so the reported [distinct]/[deduped] split — recomputed
   from the merged per-trial fingerprints — is identical at every
   [jobs] setting.  Violating fingerprints are never memoized, so a
   duplicate of a violating trial always re-executes and the
   lowest-index hit is unchanged. *)
let sweep_stats (module Sc : Scenario.S) ?(master_seed = 1) ?budget ?(jobs = 1)
    ?chunk ~params () =
  if jobs < 1 then invalid_arg "Runner.sweep: jobs must be >= 1";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Runner.sweep: chunk must be >= 1"
  | Some _ | None -> ());
  (* [jobs] is a maximum degree of parallelism, not a worker count to
     honor literally: domains beyond the core count only add
     stop-the-world synchronization (each minor collection barriers
     every domain), so oversubscribing a small machine makes sweeps
     slower, not faster.  Capping is observably safe — reports are
     jobs-invariant by construction (see the determinism tests).
     MM_CHECK_MAX_DOMAINS overrides the machine-derived cap; the
     determinism tests use it to drive the parallel path even on a
     single-core host. *)
  let jobs = min jobs (max_workers ()) in
  let module D = Drive (Sc) in
  let budget = Option.value budget ~default:Sc.default_budget in
  let cfg = Sc.cfg_of_params params in
  (* The backend is resolved into [cfg], never drawn, so a native trial
     and its emulated twin share a draw stream.  Salting the generation
     fingerprint with the backend keeps their fingerprints disjoint —
     dedup can never conflate trials across backends (native sweeps keep
     their historical fingerprints: the native salt is 0). *)
  let fp_salt =
    Mm_mem.Mem.Backend.tag params.Scenario.backend * 0x2545F4914F6CDD1D
  in
  let master = Rng.create master_seed in
  let fps = Array.make (max budget 1) 0 in
  let finish ~trials_run ~violation =
    let distinct_trials = count_distinct fps trials_run in
    {
      algo = Sc.name;
      budget;
      trials_run;
      distinct_trials;
      deduped = trials_run - distinct_trials;
      violation;
    }
  in
  let new_ctx _wid =
    (* Runs inside the worker domain, before its first trial: a parallel
       sweep's domain pre-sizes its own minor heap so clean trials
       complete without triggering a cross-domain stop-the-world
       collection.  A sequential sweep leaves the GC alone. *)
    if jobs > 1 then shape_minor_heap ~words:(minor_heap_words ());
    {
      memo = Hashtbl.create 64;
      logged = [];
      executed = 0;
      dedup_hits = 0;
      hit = None;
    }
  in
  let detect ctx i =
    let t, fp =
      D.gen_fp cfg ~salt:fp_salt ~trial_seed:(nth_trial_seed master i)
    in
    ctx.logged <- (i, fp) :: ctx.logged;
    if Hashtbl.mem ctx.memo fp then begin
      ctx.dedup_hits <- ctx.dedup_hits + 1;
      false
    end
    else begin
      ctx.executed <- ctx.executed + 1;
      match D.check cfg t with
      | None ->
        Hashtbl.add ctx.memo fp ();
        false
      | Some h ->
        (match ctx.hit with
        | Some (j, _) when j < i -> ()
        | Some _ | None -> ctx.hit <- Some (i, h));
        true
    end
  in
  let saved_minor = (Gc.get ()).Gc.minor_heap_size in
  let r =
    (* The worker-domain Gc shaping leaks into the calling domain
       (worker 0 is this domain); restore it even if a trial raised. *)
    Fun.protect
      ~finally:(fun () ->
        let g = Gc.get () in
        if g.Gc.minor_heap_size <> saved_minor then
          Gc.set { g with Gc.minor_heap_size = saved_minor })
      (fun () ->
        Pool.find_first_stats ~jobs ?chunk ~init:new_ctx ~budget detect)
  in
  (* Merge the domain-private logs into the per-trial fingerprint
     array.  Every index at or below the final frontier was evaluated
     by exactly one worker (the pool invariant), so after this merge
     [fps.(0 .. trials_run)] is fully populated and [count_distinct]
     recomputes the distinct/deduped split from scratch — lowest index
     wins was already settled by the pool, and the numbers come out the
     same at every [jobs] by construction. *)
  Array.iter
    (fun ctx -> List.iter (fun (i, fp) -> fps.(i) <- fp) ctx.logged)
    r.Pool.ctxs;
  let stats =
    Array.mapi
      (fun w ctx ->
        { claimed = r.Pool.claimed.(w); executed = ctx.executed;
          dedup_hits = ctx.dedup_hits })
      r.Pool.ctxs
  in
  match r.Pool.found with
  | None -> (finish ~trials_run:(max budget 0) ~violation:None, stats)
  | Some i ->
    (* Every index at or below the frontier was evaluated by exactly one
       worker, so exactly one domain stashed trial [i]. *)
    let h =
      Array.fold_left
        (fun acc ctx ->
          match ctx.hit with Some (j, h) when j = i -> Some h | _ -> acc)
        None r.Pool.ctxs
      |> Option.get
    in
    let cx =
      D.counterexample cfg ~trial:i ~trial_seed:(nth_trial_seed master i) h
    in
    (finish ~trials_run:(i + 1) ~violation:(Some cx), stats)

let sweep sc ?master_seed ?budget ?jobs ?chunk ~params () =
  fst (sweep_stats sc ?master_seed ?budget ?jobs ?chunk ~params ())

let replay (module Sc : Scenario.S) ~params ~trial_seed () =
  let module D = Drive (Sc) in
  let cfg = Sc.cfg_of_params params in
  let violation = D.run_trial cfg ~trial:0 ~trial_seed in
  {
    algo = Sc.name;
    budget = 1;
    trials_run = 1;
    distinct_trials = 1;
    deduped = 0;
    violation;
  }

let preamble (module Sc : Scenario.S) ~params =
  Sc.preamble (Sc.cfg_of_params params)
