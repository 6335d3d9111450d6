module Id = Mm_core.Id
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module Fd = Mm_election.Register_fd
module Log = Mm_smr.Replicated_log
module W = Workload

type Mm_net.Message.payload +=
  | Kv_forward of int        (* request id, shepherd -> leader hint *)
  | Kv_learn of int * int    (* (slot, request id), intra-shard broadcast *)

type op_record = {
  req : W.request;
  mutable completion : int;
  mutable result : int;
  mutable expired : bool;
}

let latency r =
  if r.completion < 0 || r.expired then None
  else Some (r.completion - r.req.W.arrival)

type outcome = {
  spec : W.spec;
  shards : int;
  replicas : int;
  local_reads : bool;
  ops : op_record array;
  completed : int;
  timeouts : int;
  op_timeout : int option;
  get_hist : Histogram.t array;
  put_hist : Histogram.t array;
  logs : (int * int) list array;
  consistent : bool;
  duplicate_applies : int;
  run : Engine.summary;
  total_steps : int;
  net : Network.stats;
  mem_total : Mem.counters;
  mem_blocked : int;
}

(* One shard replica.  [slots]/[alive] are the shard's register groups,
   [my_ingress] the request ids (workload order, nondecreasing arrival)
   this replica is the ingress for, [records] the host-global completion
   board every replica shares through its closure (the engine is
   single-threaded, so host state needs no synchronization). *)
let replica_process ?(recovering = false) ~eng ~shard ~peers ~r ~slots ~alive
    ~local_reads ~reqs ~records ~my_ingress ~retry_rng ~on_apply ~on_complete
    me () =
  let pid = Id.to_int me in
  let det = Fd.create alive ~me:r in
  let prop = Log.Proposer.create slots ~me:r in
  let ingress_ptr = ref 0 in
  (* Requests we shepherd: log-path ops (puts; gets too without local
     reads) and local-read gets, both kept until observed complete. *)
  let my_puts : int Queue.t = Queue.create () in
  let my_gets : int Queue.t = Queue.create () in
  let owned_set : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let learn_cache : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let applied : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let state : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let apply_next = ref 0 in
  let value_of key = Option.value ~default:0 (Hashtbl.find_opt state key) in
  let done_ id = records.(id).completion >= 0 in
  (* A request needs no more shepherding once it completed — or once its
     client gave up on it (per-op deadline): an expired request is
     dropped from the retry queues exactly like a done one. *)
  let closed id = done_ id || records.(id).expired in
  (* At-least-once retry pacing, per request: first forward immediately,
     then bounded exponential backoff with seeded jitter so a thundering
     herd of shepherds never synchronizes on a recovering leader. *)
  let retry : (int, int * int) Hashtbl.t = Hashtbl.create 32 in
  let retry_base = 16 and retry_cap = 512 in
  let retry_due id now =
    match Hashtbl.find_opt retry id with
    | None -> true
    | Some (next, _) -> next <= now
  in
  let retry_bump id now =
    let delay =
      match Hashtbl.find_opt retry id with
      | None -> retry_base
      | Some (_, d) -> min (2 * d) retry_cap
    in
    let jitter = Mm_rng.Rng.int retry_rng (1 + (delay / 2)) in
    Hashtbl.replace retry id (now + delay + jitter, delay)
  in
  let retry_drop id = Hashtbl.remove retry id in
  let claim id =
    if (not (closed id)) && not (Hashtbl.mem owned_set id) then begin
      Hashtbl.replace owned_set id ();
      match reqs.(id).W.op with
      | W.Get when local_reads -> Queue.add id my_gets
      | _ -> Queue.add id my_puts
    end
  in
  let apply s id =
    let dup = Hashtbl.mem applied id in
    if not dup then begin
      Hashtbl.replace applied id ();
      let rq = reqs.(id) in
      let value =
        match rq.W.op with
        | W.Put v ->
          Hashtbl.replace state rq.W.key v;
          v
        | W.Get -> value_of rq.W.key
      in
      on_complete ~shard id ~now:(Engine.now eng) ~value
    end;
    on_apply ~pid ~slot:s ~id ~dup;
    incr apply_next
  in
  (* Advance the applied prefix from the learn cache, reading the
     decision register only when asked (reading registers every loop
     would defeat the message wake-up design). *)
  let drain ~read_register =
    let progress = ref true in
    while !progress do
      let s = !apply_next in
      match Hashtbl.find_opt learn_cache s with
      | Some id -> apply s id
      | None ->
        if read_register then begin
          match Log.Slots.read_decided slots s with
          | Some id -> apply s id
          | None -> progress := false
        end
        else progress := false
    done
  in
  (* Answer every pending local read from the applied state, host-side
     (zero engine steps), in the same step as the catch-up's None
     read. *)
  let serve_gets () =
    let len = Queue.length my_gets in
    for _ = 1 to len do
      match Queue.take_opt my_gets with
      | None -> ()
      | Some id ->
        Hashtbl.remove owned_set id;
        if not (done_ id) then
          on_complete ~shard id ~now:(Engine.now eng)
            ~value:(value_of reqs.(id).W.key)
    done
  in
  (* Open-loop ingress: requests whose arrival step has passed enter at
     this replica.  Host-side polling against the engine clock — no
     Engine.at scheduling, so thousands of arrivals cost nothing. *)
  let pull_arrivals () =
    let now = Engine.now eng in
    while
      !ingress_ptr < Array.length my_ingress
      && reqs.(my_ingress.(!ingress_ptr)).W.arrival <= now
    do
      claim my_ingress.(!ingress_ptr);
      incr ingress_ptr
    done
  in
  let next_put () =
    let rec pop () =
      match Queue.take_opt my_puts with
      | None -> None
      | Some id ->
        if closed id then begin
          Hashtbl.remove owned_set id;
          retry_drop id;
          pop ()
        end
        else begin
          Queue.push id my_puts;
          (* keep until observed complete *)
          Some id
        end
    in
    pop ()
  in
  (* Follower shepherding: re-forward still-open requests to the current
     leader hint, each on its own backoff clock (at-least-once;
     apply-time and serve-time dedup absorb the repeats), dropping
     completed and expired ones. *)
  let forward_some leader_pid =
    let now = Engine.now eng in
    let budget = ref 16 in
    let fwd q =
      let len = Queue.length q in
      for _ = 1 to len do
        match Queue.take_opt q with
        | None -> ()
        | Some id ->
          if closed id then begin
            Hashtbl.remove owned_set id;
            retry_drop id
          end
          else begin
            Queue.add id q;
            if !budget > 0 && retry_due id now then begin
              decr budget;
              retry_bump id now;
              Proc.send leader_pid (Kv_forward id)
            end
          end
      done
    in
    fwd my_puts;
    fwd my_gets
  in
  let rec main_loop iter =
    List.iter
      (fun (_src, payload) ->
        match payload with
        | Kv_forward id -> claim id
        | Kv_learn (s, id) -> Hashtbl.replace learn_cache s id
        | _ -> ())
      (Proc.receive ());
    Fd.step det;
    drain ~read_register:(iter mod 32 = 0);
    pull_arrivals ();
    (if Fd.am_leader det then begin
       (* §5.3 leader catch-up: read decision registers until one comes
          back undecided.  The leader's state then reflects every
          decision in existence as of that last read — the
          linearization instant for the local reads served right
          after. *)
       if local_reads then begin
         drain ~read_register:true;
         serve_gets ()
       end;
       match next_put () with
       | Some id -> (
         let s = !apply_next in
         match Log.Proposer.attempt prop ~slot:s id with
         | Some chosen ->
           Log.Slots.write_decision slots s chosen;
           Hashtbl.replace learn_cache s chosen;
           Array.iteri
             (fun j q -> if j <> r then Proc.send q (Kv_learn (s, chosen)))
             peers;
           drain ~read_register:false
         | None ->
           (* Lost the ballot: catch up from the register before
              retrying at this slot. *)
           (match Log.Slots.read_decided slots s with
           | Some id -> Hashtbl.replace learn_cache s id
           | None -> ());
           Proc.yield ())
       | None -> Proc.yield ()
     end
     else begin
       (* Per-request pacing makes the scan cheap to run every loop:
          only requests whose backoff clock expired actually send. *)
       forward_some peers.(Log.leader_hint det);
       Proc.yield ()
     end);
    main_loop (iter + 1)
  in
  (* Crash-recovery boot: volatile state (applied log, key-value state,
     shepherd queues) is gone.  Replay the decided prefix from the
     crash-surviving slot registers to rebuild the state machine; the
     ingress pointer restarts at 0, so every arrived-but-open request we
     were shepherding is re-claimed — that re-claim IS the failover
     retry for requests orphaned by our crash. *)
  if recovering then drain ~read_register:true;
  main_loop 1

let run ?(seed = 1) ?(max_steps = 400_000) ?(trace_capacity = 0) ?(crashes = [])
    ?prepare ?sched ?backend ?(local_reads = true) ?op_timeout ~shards
    ~replicas ~workload ()
    =
  if shards < 1 then invalid_arg "Kv.run: shards must be >= 1";
  if replicas < 1 then invalid_arg "Kv.run: replicas must be >= 1";
  (match op_timeout with
  | Some d when d < 1 -> invalid_arg "Kv.run: op_timeout must be >= 1"
  | _ -> ());
  let n = shards * replicas in
  let eng =
    Engine.create ~seed ?sched ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link:Network.Reliable ~n ()
  in
  let store = Engine.store eng in
  let reqs = workload.W.requests in
  let records =
    Array.map
      (fun rq -> { req = rq; completion = -1; result = 0; expired = false })
      reqs
  in
  let shard_pids s = Array.init replicas (fun r -> Id.of_int ((s * replicas) + r)) in
  let shard_slots =
    Array.init shards (fun s ->
        (Log.Slots.create store ~pids:(shard_pids s)
           ~prefix:(Printf.sprintf "S%d/" s)
          : int Log.Slots.t))
  in
  let shard_alive =
    Array.init shards (fun s ->
        let pids = shard_pids s in
        Array.init replicas (fun i ->
            let owner = pids.(i) in
            let others =
              Array.to_list pids |> List.filter (fun q -> not (Id.equal q owner))
            in
            Mem.alloc store
              ~name:(Printf.sprintf "S%d/ALIVE[%d]" s i)
              ~owner ~shared_with:others 0))
  in
  (* Route each request to (owning shard, drawn ingress replica). *)
  let shard_of_key key = key mod shards in
  let ingress_rev = Array.init shards (fun _ -> Array.make replicas []) in
  Array.iteri
    (fun id rq ->
      let s = shard_of_key rq.W.key in
      let r = rq.W.ingress mod replicas in
      ingress_rev.(s).(r) <- id :: ingress_rev.(s).(r))
    reqs;
  let ingress =
    Array.map (Array.map (fun l -> Array.of_list (List.rev l))) ingress_rev
  in
  let crashed = Engine.crash_plan eng crashes in
  let logs = Array.make n [] in
  let completed = ref 0 in
  (* [accounted] closes the open-loop: each request is counted exactly
     once, at completion OR at client-side expiry, whichever lands
     first.  An expired request that completes later still records its
     completion (it took effect — the linearizability and durability
     monitors need the truth) but is kept out of the latency histograms:
     its client had already given up. *)
  let accounted = ref 0 in
  let timeouts = ref 0 in
  let expire_ptr = ref 0 in
  let duplicate_applies = ref 0 in
  let get_hist = Array.init shards (fun _ -> Histogram.create ()) in
  let put_hist = Array.init shards (fun _ -> Histogram.create ()) in
  let on_complete ~shard id ~now ~value =
    let rc = records.(id) in
    if rc.completion < 0 then begin
      rc.completion <- now;
      rc.result <- value;
      incr completed;
      if not rc.expired then begin
        incr accounted;
        let h =
          match rc.req.W.op with
          | W.Get -> get_hist.(shard)
          | W.Put _ -> put_hist.(shard)
        in
        Histogram.add h (now - rc.req.W.arrival)
      end
    end
  in
  (* Per-op deadlines: requests arrive in nondecreasing order, so one
     pointer sweep finds everything overdue.  Runs host-side inside the
     [until] predicate — zero engine steps. *)
  let check_expiry now =
    match op_timeout with
    | None -> ()
    | Some d ->
      while
        !expire_ptr < Array.length reqs
        && reqs.(!expire_ptr).W.arrival + d <= now
      do
        let rc = records.(!expire_ptr) in
        if rc.completion < 0 && not rc.expired then begin
          rc.expired <- true;
          incr timeouts;
          incr accounted
        end;
        incr expire_ptr
      done
  in
  (* Quiescent stop: [applied_hwm] is the highest applied-prefix length
     any replica of the shard ever reached (monotone, survives
     restarts); [applied_cnt] is each incarnation's own applied prefix.
     The run only ends once every live replica has caught back up to its
     shard's high-water mark — otherwise a leader that restarted right
     after its last ack could stop the run with its rebuilt log still
     short, and the durability monitor would blame recovery for an
     artifact of the stop condition. *)
  let applied_hwm = Array.make shards 0 in
  let applied_cnt = Array.make n 0 in
  let on_apply ~pid ~slot ~id ~dup =
    logs.(pid) <- (slot, id) :: logs.(pid);
    applied_cnt.(pid) <- slot + 1;
    let s = pid / replicas in
    if slot + 1 > applied_hwm.(s) then applied_hwm.(s) <- slot + 1;
    if dup then incr duplicate_applies
  in
  for s = 0 to shards - 1 do
    let peers = shard_pids s in
    for r = 0 to replicas - 1 do
      let me = peers.(r) in
      (* Derived here, in spawn order, so the retry jitter stream is a
         deterministic function of the engine seed; the recovery
         incarnation keeps drawing from the same stream. *)
      let retry_rng = Engine.derive_rng eng in
      let spawn_args ~recovering =
        replica_process ~recovering ~eng ~shard:s ~peers ~r
          ~slots:shard_slots.(s) ~alive:shard_alive.(s) ~local_reads ~reqs
          ~records ~my_ingress:ingress.(s).(r) ~retry_rng ~on_apply
          ~on_complete me
      in
      (* Host reboot: discard this incarnation's apply-log observations —
         the recovery boot replays the decided prefix from the registers
         and re-records it. *)
      let recover () =
        logs.(Id.to_int me) <- [];
        applied_cnt.(Id.to_int me) <- 0;
        spawn_args ~recovering:true ()
      in
      Engine.spawn eng me ~recover (spawn_args ~recovering:false)
    done
  done;
  (match prepare with None -> () | Some f -> f eng);
  (* Requests whose ingress replica is crash-scheduled may never enter
     the system; don't wait on them — unless per-op deadlines are on, in
     which case every request is awaited and the undeliverable ones are
     closed by expiry (that is what deadlines are for). *)
  let target = ref 0 in
  (match op_timeout with
  | Some _ -> target := Array.length reqs
  | None ->
    Array.iter
      (fun (rq : W.request) ->
        let pid =
          (shard_of_key rq.W.key * replicas) + (rq.W.ingress mod replicas)
        in
        if not crashed.(pid) then incr target)
      reqs);
  let all_pids = Array.init n Id.of_int in
  let quiesced () =
    let ok = ref true in
    for pid = 0 to n - 1 do
      if
        Engine.status_of eng all_pids.(pid) = Engine.Ready
        && applied_cnt.(pid) < applied_hwm.(pid / replicas)
      then ok := false
    done;
    !ok
  in
  let everyone_done () =
    check_expiry (Engine.now eng);
    (* [quiesced] is only probed once the books are closed, so the
       per-step cost of the stop predicate stays O(1) until the tail. *)
    !accounted >= !target && quiesced ()
  in
  ignore (Engine.run eng ~max_steps ~until:everyone_done ());
  (* Close the books: deadlines that elapsed by the end of the run count
     as timeouts even if the run stopped for another reason. *)
  check_expiry (Engine.now eng);
  let logs = Array.map List.rev logs in
  (* Within each shard, no slot may map to two different requests. *)
  let consistent = ref true in
  for s = 0 to shards - 1 do
    let slot_vals : (int, int) Hashtbl.t = Hashtbl.create 64 in
    for r = 0 to replicas - 1 do
      List.iter
        (fun (slot, id) ->
          match Hashtbl.find_opt slot_vals slot with
          | None -> Hashtbl.add slot_vals slot id
          | Some id' -> if id <> id' then consistent := false)
        logs.((s * replicas) + r)
    done
  done;
  let run = Engine.summary eng in
  {
    spec = workload.W.spec;
    shards;
    replicas;
    local_reads;
    ops = records;
    completed = !completed;
    timeouts = !timeouts;
    op_timeout;
    get_hist;
    put_hist;
    logs;
    consistent = !consistent;
    duplicate_applies = !duplicate_applies;
    run;
    total_steps = run.steps;
    net = run.net;
    mem_total = run.mem;
    mem_blocked = run.blocked;
  }

let window_hist o ?shard ?(op = `All) ~from ~until () =
  let h = Histogram.create () in
  Array.iter
    (fun rc ->
      let rq = rc.req in
      let in_shard =
        match shard with None -> true | Some s -> rq.W.key mod o.shards = s
      in
      let in_kind =
        match (op, rq.W.op) with
        | `All, _ -> true
        | `Get, W.Get -> true
        | `Put, W.Put _ -> true
        | _ -> false
      in
      if
        rc.completion >= 0 && in_shard && in_kind && rq.W.arrival >= from
        && rq.W.arrival < until
      then Histogram.add h (rc.completion - rq.W.arrival))
    o.ops;
  h

let shard_throughput o ~shard =
  let done_in_shard =
    Array.fold_left
      (fun acc rc ->
        if rc.completion >= 0 && rc.req.W.key mod o.shards = shard then acc + 1
        else acc)
      0 o.ops
  in
  if o.run.steps = 0 then 0.0
  else float_of_int done_in_shard /. (float_of_int o.run.steps /. 1000.0)
