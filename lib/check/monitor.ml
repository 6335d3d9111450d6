module Hbo = Mm_consensus.Hbo
module Paxos = Mm_consensus.Paxos
module Decisions = Mm_consensus.Decisions
module Engine = Mm_sim.Engine
module Omega = Mm_election.Omega
module Abd = Mm_abd.Abd
module Mutex = Mm_mutex.Mutex
module Log = Mm_smr.Replicated_log
module Expansion = Mm_graph.Expansion
module Trace = Mm_sim.Trace

type verdict =
  | Pass
  | Fail of string

let is_pass = function Pass -> true | Fail _ -> false

let first_failure monitors o =
  List.fold_left
    (fun acc (name, m) ->
      match acc with
      | Some _ -> acc
      | None -> (match m o with Pass -> None | Fail d -> Some (name, d)))
    None monitors

let no_sends_after ~step events =
  let offending =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.step >= step
        && match e.Trace.op with Trace.Sent _ -> true | _ -> false)
      events
  in
  match offending with
  | [] -> Pass
  | e :: _ ->
    Fail
      (Format.asprintf "message sent at step %d (>= %d): %a" e.Trace.step step
         Trace.pp_event e)

let agreement decisions =
  if Decisions.agreement decisions then Pass
  else
    Fail
      (Format.asprintf "processes decided different values: %s"
         (String.concat " "
            (Array.to_list
               (Array.mapi
                  (fun i d ->
                    match d with
                    | Some v -> Printf.sprintf "p%d=%d" i v
                    | None -> Printf.sprintf "p%d=?" i)
                  decisions))))

let validity ~inputs decisions =
  if Decisions.validity ~inputs decisions then Pass
  else Fail "a decision value was nobody's input"

let hbo_termination ~graph (o : Hbo.outcome) =
  match Decisions.undecided ~crashed:o.Hbo.run.crashed o.Hbo.decisions with
  | [] -> Pass
  | undecided ->
    let crashed =
      let acc = ref [] in
      Array.iteri (fun i c -> if c then acc := i :: !acc) o.Hbo.run.crashed;
      List.rev !acc
    in
    let represented = Expansion.represented graph ~crashed in
    let n = Mm_graph.Graph.order graph in
    let rep = List.length represented in
    (* Thm 4.2 guarantees termination with probability 1, not within any
       step budget: HBO's coin rounds converge only when a value can win
       a majority of all n among the represented ids, and the per-round
       success probability decays exponentially in the representation
       deficit (n - rep ≫ √n means ~2^Ω((n-rep)²/rep) expected rounds).
       At small n the deficit cannot outrun any budget, so the demand
       stays unconditional there (and identical to its historical
       behavior); at larger n a budgeted run can only honestly demand a
       decision inside the fast-convergence envelope. *)
    if
      n > 62
      && 2 * rep > n
      && rep < n - (3 * int_of_float (sqrt (float_of_int n)))
    then Pass
    else
      let analysis =
      if Expansion.majority_represented graph ~crashed then
        "the crash set leaves a represented majority, so HBO must \
         terminate (Thm 4.2): checker/budget bug or genuine liveness bug"
      else
        Printf.sprintf
          "the crash set breaks the represented majority (%d/%d \
           represented), beyond what this graph tolerates (Thm 4.3)"
          (List.length represented) n
    in
    Fail
      (Printf.sprintf
         "correct process(es) %s undecided after %d steps; crashed {%s}: %s"
         (String.concat "," (List.map (Printf.sprintf "p%d") undecided))
         o.Hbo.run.steps
         (String.concat "," (List.map string_of_int crashed))
         analysis)

let hbo_stalls (o : Hbo.outcome) =
  match Decisions.undecided ~crashed:o.Hbo.run.crashed o.Hbo.decisions with
  | _ :: _ -> Pass
  | [] ->
    Fail
      (Printf.sprintf
         "all correct processes decided (after %d steps) on a \
          configuration where consensus must stall (Thm 4.4)"
         o.Hbo.run.steps)

let omega_stable (o : Omega.outcome) =
  if Omega.holds o then Pass
  else
    Fail
      (Printf.sprintf
         "Ω not stable: agreed leader %s, last output change at step %d \
          (window opened at %d)"
         (match o.Omega.agreed_leader with
         | Some l -> Printf.sprintf "p%d" l
         | None -> "none")
         o.Omega.last_change_step o.Omega.window_start)

(* Graceful degradation (Thm 5.1 under a healed adversary): once every
   injected fault has cleared by [heal_by], a correct leader must be
   agreed and the last output change must land within [settle] steps of
   the heal. *)
let omega_converges ~heal_by ~settle (o : Omega.outcome) =
  match o.Omega.agreed_leader with
  | None -> Fail "no agreed leader after the last fault cleared"
  | Some l when o.Omega.run.crashed.(l) ->
    Fail (Printf.sprintf "agreed leader p%d is crashed" l)
  | Some l ->
    if o.Omega.last_change_step <= heal_by + settle then Pass
    else
      Fail
        (Printf.sprintf
           "leadership (p%d) still changing at step %d, more than %d step(s) \
            after the last fault cleared at %d"
           l o.Omega.last_change_step settle heal_by)

let omega_silent (o : Omega.outcome) =
  let sent = o.Omega.window_net.Mm_net.Network.sent in
  if sent = 0 then Pass
  else
    Fail
      (Printf.sprintf
         "%d message(s) sent inside the steady-state window (Thm 5.1/5.2 \
          promise silence)"
         sent)

(* Resilience bound of ABD-emulated registers (arXiv 1906.00298,
   arXiv 2012.10846): the emulation stays correct and wait-free while a
   majority of hosts are up, and loses wait-freedom exactly when a
   majority has crashed.  [order] is the system size n.  Two distinct
   failures:

   - ops blocked although a majority survived — the emulation violated
     its own bound, an implementation bug;
   - ops blocked after a majority crash — correct per the papers, but a
     liveness loss the native backend does not have.  Reported as a
     failure so sweeps that exceed the bound surface a replayable
     counterexample distinguishing the backends. *)
let emulated_resilience ~order (run : Engine.summary) =
  let b = run.blocked in
  if b = 0 then Pass
  else begin
    let down =
      Array.fold_left (fun a c -> if c then a + 1 else a) 0 run.crashed
    in
    let live = order - down in
    if 2 * live > order then
      Fail
        (Printf.sprintf
           "%d emulated register op(s) blocked although %d/%d hosts are up \
            — the ABD emulation must be wait-free below the minority \
            bound (arXiv 1906.00298): backend bug"
           b live order)
    else
      Fail
        (Printf.sprintf
           "%d emulated register op(s) blocked: %d/%d hosts up, no \
            majority quorum — wait-freedom lost at the f < n/2 bound of \
            the register emulation (arXiv 1906.00298, 2012.10846); \
            native m&m registers tolerate this crash set"
           b live order)
  end

(* Under the emulated backend Thm 5.1/5.2 silence becomes silence
   modulo emulation traffic: every message in the window must be
   accounted to register quorum rounds, nothing else. *)
let omega_silent_emulated (o : Omega.outcome) =
  let sent = o.Omega.window_net.Mm_net.Network.sent in
  let emu = o.Omega.window_emu_msgs in
  if sent = emu then Pass
  else
    Fail
      (Printf.sprintf
         "%d message(s) sent inside the steady-state window but only %d \
          accounted to emulated register rounds (Thm 5.1/5.2 promise \
          protocol silence)"
         sent emu)

let abd_complete (o : Abd.outcome) =
  if o.Abd.pending = 0 then Pass
  else
    Fail
      (Printf.sprintf "%d operation(s) still blocked after %d steps"
         o.Abd.pending o.Abd.run.steps)

let abd_atomic o =
  match Abd.atomicity_violations o with
  | [] -> Pass
  | vs -> Fail (String.concat "; " vs)

let abd_linearizable (o : Abd.outcome) =
  if Lin.check (Lin.of_abd_history o.Abd.history) then Pass
  else
    Fail
      (Printf.sprintf
         "completed history of %d operation(s) admits no linearization"
         (List.length o.Abd.history))

let paxos_termination (o : Paxos.outcome) =
  match Decisions.undecided ~crashed:o.Paxos.run.crashed o.Paxos.decisions with
  | [] -> Pass
  | undecided ->
    Fail
      (Printf.sprintf
         "correct process(es) %s undecided after %d steps (max ballot %d)"
         (String.concat "," (List.map (Printf.sprintf "p%d") undecided))
         o.Paxos.run.steps o.Paxos.max_ballot)

let mutex_exclusion (o : Mutex.outcome) =
  if o.Mutex.safety_violations = 0 then Pass
  else
    Fail
      (Printf.sprintf "%d critical-section overlap(s) observed"
         o.Mutex.safety_violations)

let mutex_no_spin (o : Mutex.outcome) =
  let spins = Array.fold_left ( + ) 0 o.Mutex.spin_reads in
  if spins = 0 then Pass
  else
    Fail
      (Printf.sprintf
         "%d unprompted register re-read(s) while blocked (waiters must \
          sleep on their mailbox, §1): %s"
         spins
         (String.concat " "
            (Array.to_list
               (Array.mapi (fun i s -> Printf.sprintf "p%d=%d" i s)
                  o.Mutex.spin_reads))))

let mutex_progress ~entries (o : Mutex.outcome) =
  let laggards = ref [] in
  Array.iteri
    (fun i e -> if e < entries then laggards := (i, e) :: !laggards)
    o.Mutex.entries;
  match List.rev !laggards with
  | [] -> Pass
  | ls ->
    Fail
      (Printf.sprintf "process(es) %s completed fewer than %d entries in %d steps"
         (String.concat " "
            (List.map (fun (i, e) -> Printf.sprintf "p%d=%d" i e) ls))
         entries o.Mutex.run.steps)

let smr_consistent (o : Log.outcome) =
  if o.Log.consistent then Pass
  else
    Fail
      (Printf.sprintf
         "two processes applied different commands at the same slot (%d \
          slot(s) used)"
         o.Log.slots_used)

let smr_prefix (o : Log.outcome) =
  (* Each log must be contiguous from slot 0 (the apply loop advances a
     prefix pointer), and any two logs must agree on their common
     prefix. *)
  let gap = ref None in
  Array.iteri
    (fun pi log ->
      List.iteri
        (fun j (s, _) -> if !gap = None && s <> j then gap := Some (pi, j, s))
        log)
    o.Log.logs;
  match !gap with
  | Some (pi, expected, got) ->
    Fail
      (Printf.sprintf "p%d's log has a gap: slot %d where %d was expected" pi
         got expected)
  | None ->
    let diverged = ref None in
    let n = Array.length o.Log.logs in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if !diverged = None then
          List.iteri
            (fun j ((_, ca), (_, cb)) ->
              if !diverged = None && ca <> cb then diverged := Some (a, b, j))
            (List.combine
               (List.filteri
                  (fun j _ -> j < List.length o.Log.logs.(b))
                  o.Log.logs.(a))
               (List.filteri
                  (fun j _ -> j < List.length o.Log.logs.(a))
                  o.Log.logs.(b)))
      done
    done;
    (match !diverged with
    | None -> Pass
    | Some (a, b, slot) ->
      Fail
        (Printf.sprintf "p%d and p%d diverge at slot %d of their common prefix"
           a b slot))

let kv_log_consistent (o : Mm_kv.Kv.outcome) =
  if o.Mm_kv.Kv.consistent then Pass
  else
    Fail
      (Printf.sprintf
         "two replicas of one shard applied different requests at the same \
          slot (%d shard(s), %d replicas each)"
         o.Mm_kv.Kv.shards o.Mm_kv.Kv.replicas)

(* Value-level linearizability of the completed KV history, one Lin
   instance per key (keys are independent atomic registers).  Incomplete
   requests never took effect observably — an unapplied put mutated no
   replica state — so restricting to completed operations is sound.
   Put values are globally unique (request id + 1), which keeps the
   Wing–Gong search unambiguous. *)
let kv_linearizable (o : Mm_kv.Kv.outcome) =
  let module W = Mm_kv.Workload in
  let by_key : (int, Lin.event list) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (rc : Mm_kv.Kv.op_record) ->
      if rc.Mm_kv.Kv.completion >= 0 then begin
        let rq = rc.Mm_kv.Kv.req in
        let ev =
          {
            Lin.proc = rq.W.client;
            op =
              (match rq.W.op with
              | W.Get -> Lin.Read rc.Mm_kv.Kv.result
              | W.Put v -> Lin.Write v);
            start_t = rq.W.arrival;
            finish_t = rc.Mm_kv.Kv.completion;
          }
        in
        Hashtbl.replace by_key rq.W.key
          (ev :: Option.value ~default:[] (Hashtbl.find_opt by_key rq.W.key))
      end)
    o.Mm_kv.Kv.ops;
  Hashtbl.fold
    (fun key events acc ->
      match acc with
      | Fail _ -> acc
      | Pass ->
        (* The checker is bitmask-indexed (<= 62 events); kv trials cap
           total ops below that, so a key can never overflow it. *)
        if List.length events <= 62 && not (Lin.check ~init:0 events) then
          Fail
            (Printf.sprintf
               "key %d's completed history (%d op(s)) admits no linearization"
               key (List.length events))
        else acc)
    by_key Pass

let kv_complete (o : Mm_kv.Kv.outcome) =
  let total = Array.length o.Mm_kv.Kv.ops in
  if o.Mm_kv.Kv.completed >= total then Pass
  else
    Fail
      (Printf.sprintf "%d of %d request(s) incomplete after %d steps"
         (total - o.Mm_kv.Kv.completed)
         total o.Mm_kv.Kv.run.steps)

(* Graceful degradation: every request that arrived before the last
   fault cleared must complete within [settle] steps of the heal. *)
let kv_recovers ~heal_by ~settle (o : Mm_kv.Kv.outcome) =
  let module W = Mm_kv.Workload in
  let late = ref 0 and worst = ref (-1) in
  Array.iter
    (fun (rc : Mm_kv.Kv.op_record) ->
      if
        rc.Mm_kv.Kv.req.W.arrival <= heal_by
        && (rc.Mm_kv.Kv.completion < 0
           || rc.Mm_kv.Kv.completion > heal_by + settle)
      then begin
        incr late;
        worst := max !worst rc.Mm_kv.Kv.completion
      end)
    o.Mm_kv.Kv.ops;
  if !late = 0 then Pass
  else
    Fail
      (Printf.sprintf
         "%d request(s) from before the heal (step %d) not complete within \
          %d step(s) of it (run ended at %d)"
         !late heal_by settle o.Mm_kv.Kv.run.steps)

(* Durability across crash-recovery: an acknowledged put must never be
   lost.  Acknowledgement means the request completed (the client saw a
   completion step); durable means the request was applied somewhere in
   its shard — present in the union of the shard replicas' final apply
   logs.  Registers survive restarts by the m&m model (§3), so a restart
   that loses an acked put points at the recovery path, not the store. *)
let kv_durable (o : Mm_kv.Kv.outcome) =
  let module W = Mm_kv.Workload in
  let lost = ref [] in
  Array.iteri
    (fun id (rc : Mm_kv.Kv.op_record) ->
      match rc.Mm_kv.Kv.req.W.op with
      | W.Get -> ()
      | W.Put _ ->
        if rc.Mm_kv.Kv.completion >= 0 then begin
          let s = rc.Mm_kv.Kv.req.W.key mod o.Mm_kv.Kv.shards in
          let applied = ref false in
          for r = 0 to o.Mm_kv.Kv.replicas - 1 do
            if
              (not !applied)
              && List.exists
                   (fun (_, id') -> id' = id)
                   o.Mm_kv.Kv.logs.((s * o.Mm_kv.Kv.replicas) + r)
            then applied := true
          done;
          if not !applied then lost := id :: !lost
        end)
    o.Mm_kv.Kv.ops;
  match List.rev !lost with
  | [] -> Pass
  | ids ->
    Fail
      (Printf.sprintf
         "%d acknowledged put(s) missing from their shard's apply logs \
          (lost across a restart?): req %s"
         (List.length ids)
         (String.concat "," (List.map string_of_int ids)))

let smr_committed (o : Log.outcome) =
  if o.Log.all_committed then Pass
  else
    Fail
      (Printf.sprintf
         "not every correct process applied every correct command after %d \
          steps (%d slot(s) used)"
         o.Log.run.steps o.Log.slots_used)
