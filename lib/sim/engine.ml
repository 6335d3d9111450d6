module Id = Mm_core.Id
module Rng = Mm_rng.Rng
module Minheap = Mm_core.Minheap
module Network = Mm_net.Network
module Mem = Mm_mem.Mem

type stop_reason =
  | Stopped
  | Quiescent
  | Step_limit

let pp_stop_reason fmt = function
  | Stopped -> Format.fprintf fmt "stopped"
  | Quiescent -> Format.fprintf fmt "quiescent"
  | Step_limit -> Format.fprintf fmt "step-limit"

type status =
  | Unspawned
  | Ready
  | Done
  | Crashed

(* Result type of one resumption of a process fiber: either the process
   function returned, or it performed an effect and the engine stashed the
   continuation for the next time the process is scheduled. *)
type outcome =
  | Finished_fiber
  | Suspended

(* What a runnable process will do when next scheduled.  [Pend] packs the
   performed effect with its continuation; the engine interprets the
   effect at step time ([exec_eff]).  Compared to stashing a ready-made
   thunk this saves several closure allocations per step — the hot path
   of every sweep. *)
type pending =
  | No_pending
  | Start of (unit -> outcome)  (* fiber not yet started *)
  | Pend : 'a Effect.t * ('a, outcome) Effect.Deep.continuation -> pending

type proc = {
  pid : Id.t;
  mutable pending : pending;
  mutable p_status : status;
  mutable steps : int;
  rng : Rng.t;  (* the process's private coin stream *)
  (* Crash-recovery entry point, installed by [spawn ?recover]: a
     restarted process loses its fiber (all volatile state) and re-enters
     here, rebuilding from whatever the Mem backend preserved. *)
  mutable recover : (unit -> unit) option;
  (* Bounded retry of blocked (Unavailable) register ops: the process is
     not schedulable before [retry_at]; [backoff] is the delay to apply
     on the next block, doubling up to [max_blocked_backoff]. *)
  mutable retry_at : int;
  mutable backoff : int;
}

(* Cap on the exponential retry delay of a blocked emulated-register op.
   Doubling up to the cap keeps the number of visible [Trace.Blocked]
   retries logarithmic in the outage length instead of linear. *)
let max_blocked_backoff = 1024

(* The runnable set is maintained incrementally — processes enter on
   spawn/thaw/restart/retry-expiry and leave on block/freeze/crash/done —
   so a step costs O(active), not O(n), and a large quiescent population
   (Thm 5.1's steady state) costs literally nothing.  Invariants:

   - [view.runnable]'s valid prefix holds, ascending, exactly the pids
     with [p_status = Ready && not frozen && retry_at <= step]; the
     [view.mask] bitmap mirrors that prefix (Sched.view_mem reads it).
   - [ready_n] counts Ready processes ([Ready] implies [has_pending], so
     [ready_n - view.count] is the stalled-but-alive population: frozen
     or backing off).
   - [crash_heap]/[restart_heap]/[retry_heap] hold packed
     [step * n + pid] keys for scheduled faults and backoff expiries;
     the option/retry arrays stay the truth and stale heap entries are
     skipped on pop.  Due steps are clamped to the current step at push
     time so simultaneously-due events pop in ascending pid order — the
     order the old O(n) scans applied them in (replay contract).
   - Quiescent iff [view.count = 0 && ready_n = 0 && restarts_pending = 0]:
     an O(1) test replacing the old whole-array [frozen_pending] scan.
   - Due-step gates, so a step pays for a subsystem only when it has
     something due.  [fault_due] is at most the earliest due step in the
     three heaps (lowered on every push, recomputed after a drain); the
     network keeps its own ([Network.next_wake]).  A drain or tick
     before its gate opens would find nothing due, so skipping it moves
     no event.  [has_timely] mirrors [Sched.has_timely]: without timely
     processes [note_step] is a no-op. *)
type t = {
  n_procs : int;
  net : Network.t;
  mem : Mem.store;
  dom : Mm_core.Domain.t;
  sched : Sched.t;
  sched_rng : Rng.t;
  seed_rng : Rng.t;  (* parent stream for derive_rng *)
  procs : proc array;
  crash_step : int option array;
  restart_step : int option array;
  victims : bool array;  (* the crash plan's pids, see [crash_plan] *)
  (* Frozen processes are slow, not dead: they take no steps while the
     flag is set but keep their fiber and message queues, so they resume
     exactly where they stopped on thaw. *)
  frozen : bool array;
  (* Staged actions, ascending in step, fired by the run loop once the
     clock reaches them.  The adversary's timeline hook (Nemesis). *)
  mutable actions : (int * (t -> unit)) list;
  tr : Trace.t option;
  view : Sched.view;  (* reused every step; see Sched.view *)
  mutable step : int;
  mutable stop : stop_reason;  (* why the last [run] returned *)
  mutable coins : int;
  mutable sched_log : int list option;  (* reversed; None = not recording *)
  crash_heap : Minheap.t;
  restart_heap : Minheap.t;
  retry_heap : Minheap.t;
  mutable ready_n : int;
  mutable done_n : int;
  mutable crashed_n : int;
  mutable restarts_pending : int;  (* Somes in [restart_step] *)
  mutable fault_due : int;
  mutable has_timely : bool;
}

let has_pending p =
  match p.pending with
  | No_pending -> false
  | Start _ | Pend _ -> true

(* Lower bound of [x] in the ascending valid prefix [a[0, count)]. *)
let lower_bound a count x =
  let lo = ref 0 and hi = ref count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Insert/remove pid [i] in the runnable prefix, keeping it ascending and
   the mask in sync.  Both are no-ops when already in the desired state,
   so transition call sites don't have to pre-check membership. *)
let rinsert t i =
  let v = t.view in
  if not (Sched.view_mem v i) then begin
    let a = v.Sched.runnable in
    let count = v.Sched.count in
    let pos = lower_bound a count i in
    Array.blit a pos a (pos + 1) (count - pos);
    a.(pos) <- i;
    v.Sched.count <- count + 1;
    Bytes.set v.Sched.mask i '\001'
  end

let rremove t i =
  let v = t.view in
  if Sched.view_mem v i then begin
    let a = v.Sched.runnable in
    let count = v.Sched.count in
    let pos = lower_bound a count i in
    Array.blit a (pos + 1) a pos (count - pos - 1);
    v.Sched.count <- count - 1;
    Bytes.set v.Sched.mask i '\000'
  end

let record t pid op =
  match t.tr with
  | None -> ()
  | Some tr -> Trace.record tr { Trace.step = t.step; pid; op }

let install_observer t =
  (* Link events enter the trace as they happen, so counterexample traces
     show drops and deliveries interleaved with process steps. *)
  if t.tr <> None then
    Network.set_observer t.net (function
      | Network.Drop { src; dst = _ } -> record t src Trace.Dropped
      | Network.Deliver { src; dst } -> record t dst (Trace.Delivered src))

(* The order of [root] splits — network, scheduler, the per-process
   parent (drained in pid order), then the derive stream — is part of
   the replay contract. *)
let create ?(seed = 0xC0FFEE) ?delay ?sched ?(trace_capacity = 0)
    ?(backend = Mem.Backend.Native) ~domain ~link ~n () =
  if n < 1 then invalid_arg "Engine.create: need n >= 1";
  if Mm_core.Domain.order domain <> n then
    invalid_arg "Engine.create: domain order does not match n";
  let root = Rng.create seed in
  let net_rng = Rng.split root in
  let sched_rng = Rng.split root in
  let proc_parent = Rng.split root in
  let net = Network.create ~rng:net_rng ~n ~kind:link ?delay () in
  let procs =
    Array.init n (fun i ->
        {
          pid = Id.of_int i;
          pending = No_pending;
          p_status = Unspawned;
          steps = 0;
          rng = Rng.split proc_parent;
          recover = None;
          retry_at = 0;
          backoff = 0;
        })
  in
  let seed_rng = Rng.split root in
  let mem = Mem.create ~backend domain in
  (* Emulated-register quorum rounds are charged to the network stats. *)
  Mem.set_transport mem (fun ~sent ~delivered ->
      Network.account net ~sent ~delivered);
  let sched = match sched with Some s -> s | None -> Sched.create Sched.Random in
  let t =
    {
      n_procs = n;
      net;
      mem;
      dom = domain;
      sched;
      sched_rng;
      seed_rng;
      procs;
      crash_step = Array.make n None;
      restart_step = Array.make n None;
      victims = Array.make n false;
      frozen = Array.make n false;
      actions = [];
      tr = (if trace_capacity > 0 then Some (Trace.create trace_capacity) else None);
      view =
        {
          Sched.now = 0;
          count = 0;
          runnable = Array.make n 0;
          mask = Bytes.make n '\000';
          steps = (fun i -> procs.(i).steps);
        };
      step = 0;
      stop = Step_limit;
      coins = 0;
      sched_log = None;
      crash_heap = Minheap.create ();
      restart_heap = Minheap.create ();
      retry_heap = Minheap.create ();
      ready_n = 0;
      done_n = 0;
      crashed_n = 0;
      restarts_pending = 0;
      fault_due = max_int;
      has_timely = Sched.has_timely sched;
    }
  in
  install_observer t;
  t

let n t = t.n_procs
let store t = t.mem
let backend t = Mem.backend t.mem
let network t = t.net
let domain t = t.dom
let now t = t.step
let steps_of t p = t.procs.(Id.to_int p).steps
let trace t = t.tr
let derive_rng t = Rng.split t.seed_rng

let record_schedule t = t.sched_log <- Some []

let schedule t =
  match t.sched_log with
  | None -> []
  | Some l -> List.rev l

let status_of t p = t.procs.(Id.to_int p).p_status

(* Crashed and Done processes never come back from either state except
   via restart, which the counters track — so "correct so far" is a pure
   counter read, O(1), and the fold walks the status array once without
   allocating.  [correct] stays for callers that want the list. *)
let correct_count t = t.n_procs - t.done_n - t.crashed_n

let fold_correct t f init =
  let acc = ref init in
  for i = 0 to t.n_procs - 1 do
    let p = t.procs.(i) in
    match p.p_status with
    | Crashed | Done -> ()
    | Ready | Unspawned -> acc := f !acc p.pid
  done;
  !acc

let correct t = List.rev (fold_correct t (fun acc p -> p :: acc) [])

let is_proc_effect : type b. b Effect.t -> bool = function
  | Proc.Yield -> true
  | Proc.Self -> true
  | Proc.Send _ -> true
  | Proc.Receive -> true
  | Proc.Read_reg _ -> true
  | Proc.Write_reg _ -> true
  | Proc.Coin -> true
  | Proc.Rand_int _ -> true
  | Proc.My_steps -> true
  | Proc.Atomic _ -> true
  | _ -> false

(* A register op found no quorum: re-stash the effect and schedule the
   retry with capped exponential backoff.  Availability is store-global,
   so the retry is exact; spacing retries out keeps the Trace.Blocked
   count O(log outage) instead of one event per scheduler pick. *)
let note_blocked t p =
  let delay =
    if p.backoff = 0 then 1 else min (2 * p.backoff) max_blocked_backoff
  in
  p.backoff <- delay;
  p.retry_at <- t.step + delay

(* Interpret one stashed effect: perform its side effect — this is the
   atomic step — record the trace event, then resume the fiber, which
   runs process-local code until its next request. *)
let exec_eff :
    type a. t -> proc -> a Effect.t -> (a, outcome) Effect.Deep.continuation
    -> outcome =
 fun t p eff k ->
  let open Effect.Deep in
  let pid = p.pid in
  match eff with
  | Proc.Yield ->
    record t pid Trace.Yielded;
    continue k ()
  | Proc.Self ->
    record t pid Trace.Yielded;
    continue k pid
  | Proc.Send (dst, payload) ->
    Network.send t.net ~now:t.step ~src:pid ~dst payload;
    record t pid (Trace.Sent dst);
    continue k ()
  | Proc.Receive ->
    let msgs = Network.drain t.net pid in
    record t pid (Trace.Received (List.length msgs));
    continue k msgs
  | Proc.Read_reg r -> (
    match Mem.read r ~by:pid with
    | v ->
      p.backoff <- 0;
      record t pid (Trace.Read (Mem.name r));
      continue k v
    | exception Mem.Unavailable _ ->
      p.pending <- Pend (eff, k);
      note_blocked t p;
      record t pid (Trace.Blocked (Mem.name r));
      Suspended)
  | Proc.Write_reg (r, v) -> (
    match Mem.write r ~by:pid v with
    | () ->
      p.backoff <- 0;
      record t pid (Trace.Wrote (Mem.name r));
      continue k ()
    | exception Mem.Unavailable _ ->
      p.pending <- Pend (eff, k);
      note_blocked t p;
      record t pid (Trace.Blocked (Mem.name r));
      Suspended)
  | Proc.Coin ->
    t.coins <- t.coins + 1;
    let b = Rng.bool p.rng in
    record t pid (Trace.Coined b);
    continue k b
  | Proc.Rand_int bound ->
    t.coins <- t.coins + 1;
    let v = Rng.int p.rng bound in
    record t pid Trace.Atomic_op;
    continue k v
  | Proc.My_steps ->
    record t pid Trace.Yielded;
    continue k p.steps
  | Proc.Atomic f -> (
    (* Safe to retry on Unavailable: availability cannot change inside
       one step, and every atomic block's first register touch raises
       before any mutation. *)
    match f () with
    | v ->
      p.backoff <- 0;
      record t pid Trace.Atomic_op;
      continue k v
    | exception Mem.Unavailable { reg; _ } ->
      p.pending <- Pend (eff, k);
      note_blocked t p;
      record t pid (Trace.Blocked reg);
      Suspended)
  | _ ->
    (* [spawn]'s effc only stashes the Proc effects above. *)
    assert false

(* Wrap a process main function as a fresh fiber for [p].  Shared by
   [spawn] and restart: a restarted process gets a brand-new fiber, so
   no volatile state survives. *)
let install_fiber t p main =
  let open Effect.Deep in
  let pid = p.pid in
  let handler =
    {
      retc =
        (fun () ->
          record t pid Trace.Finished;
          Finished_fiber);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          if is_proc_effect eff then
            Some
              (fun (k : (a, outcome) continuation) ->
                p.pending <- Pend (eff, k);
                Suspended)
          else None);
    }
  in
  p.pending <- Start (fun () -> match_with main () handler)

(* Install the fiber of a process.  Every effect suspends the fiber and
   stashes the effect with its continuation; [exec_eff] interprets it
   when the scheduler next picks this process. *)
let spawn t ?recover pid main =
  let p = t.procs.(Id.to_int pid) in
  (match p.p_status with
  | Unspawned -> ()
  | Ready | Done | Crashed -> invalid_arg "Engine.spawn: process already spawned");
  p.p_status <- Ready;
  t.ready_n <- t.ready_n + 1;
  p.recover <- recover;
  install_fiber t p main;
  if not t.frozen.(Id.to_int pid) then rinsert t (Id.to_int pid)

(* The crash/restart schedulers share one validation family: negative
   steps, scheduling against an already-crashed process, and a second
   conflicting schedule are harness bugs, not faults to inject — reject
   them all with the same [Invalid_argument] shape. *)
let check_schedule ~api ~existing step =
  if step < 0 then invalid_arg (Printf.sprintf "Engine.%s: negative step" api);
  match existing with
  | Some s when s <> step ->
    invalid_arg
      (Printf.sprintf "Engine.%s: conflicting %s schedule for pid" api
         (if api = "restart_at" then "restart" else "crash"))
  | _ -> ()

(* Heap keys pack [due * n + pid]; due is clamped to the present so that
   everything already due shares one due value and therefore pops in
   ascending pid order (see the invariant block above).  One push per
   None→Some transition keeps heap entries 1:1 with live schedules.
   Every push also lowers the [fault_due] gate. *)
let push_due t heap ~step pid =
  let due = if step < t.step then t.step else step in
  Minheap.push heap ((due * t.n_procs) + pid);
  if due < t.fault_due then t.fault_due <- due

let crash_at t pid step =
  let i = Id.to_int pid in
  check_schedule ~api:"crash_at" ~existing:t.crash_step.(i) step;
  if t.procs.(i).p_status = Crashed then
    invalid_arg "Engine.crash_at: process already crashed";
  if t.crash_step.(i) = None then
    push_due t t.crash_heap ~step i;
  t.crash_step.(i) <- Some step

let crash_now t pid = crash_at t pid t.step

(* Validate the whole plan before scheduling any of it, so a bad entry
   leaves no half-installed plan behind. *)
let crash_plan t plan =
  List.iter
    (fun (pid, step) ->
      if pid < 0 || pid >= t.n_procs then
        invalid_arg
          (Printf.sprintf "Engine.crash_plan: pid %d outside [0, %d)" pid
             t.n_procs);
      if step < 0 then
        invalid_arg
          (Printf.sprintf "Engine.crash_plan: negative step %d for pid %d" step
             pid))
    plan;
  List.iter
    (fun (pid, step) ->
      t.victims.(pid) <- true;
      crash_at t (Id.of_int pid) step)
    plan;
  t.victims

let has_recovery t pid = t.procs.(Id.to_int pid).recover <> None

let restart_at t pid step =
  let i = Id.to_int pid in
  check_schedule ~api:"restart_at" ~existing:t.restart_step.(i) step;
  let p = t.procs.(i) in
  if p.recover = None then
    invalid_arg "Engine.restart_at: process has no recovery closure";
  (* A restart needs a crash to recover from: the process must already
     be crashed, or have a crash scheduled no later than [step]. *)
  (match (p.p_status, t.crash_step.(i)) with
  | Crashed, _ -> ()
  | _, Some s when s <= step -> ()
  | _, _ -> invalid_arg "Engine.restart_at: no crash to recover from");
  if t.restart_step.(i) = None then begin
    push_due t t.restart_heap ~step i;
    t.restarts_pending <- t.restarts_pending + 1
  end;
  t.restart_step.(i) <- Some step

let restart_now t pid = restart_at t pid t.step

let freeze t pid =
  let i = Id.to_int pid in
  (match t.procs.(i).p_status with
  | Crashed -> invalid_arg "Engine.freeze: process already crashed"
  | Unspawned | Ready | Done -> ());
  t.frozen.(i) <- true;
  rremove t i

let thaw t pid =
  let i = Id.to_int pid in
  if t.frozen.(i) then begin
    t.frozen.(i) <- false;
    let p = t.procs.(i) in
    if p.p_status = Ready && p.retry_at <= t.step then rinsert t i
  end

let is_frozen t pid = t.frozen.(Id.to_int pid)

let at t ~step f =
  if step < 0 then invalid_arg "Engine.at: negative step";
  (* Sorted insert keeps firing order (step, registration order). *)
  let rec ins = function
    | [] -> [ (step, f) ]
    | (s, _) :: _ as rest when s > step -> (step, f) :: rest
    | x :: tl -> x :: ins tl
  in
  t.actions <- ins t.actions

(* Top-level so the per-step call allocates nothing when no actions are
   pending (the common case). *)
let rec fire_due t = function
  | (s, f) :: tl when s <= t.step ->
    f t;
    fire_due t tl
  | rest -> rest

let fire_actions t =
  match t.actions with
  | [] -> ()
  | actions -> t.actions <- fire_due t actions

let apply_crash t i =
  let p = t.procs.(i) in
  (match p.p_status with
  | Ready | Unspawned ->
    if p.p_status = Ready then begin
      t.ready_n <- t.ready_n - 1;
      rremove t i
    end;
    p.p_status <- Crashed;
    t.crashed_n <- t.crashed_n + 1;
    p.pending <- No_pending;
    Sched.note_crash t.sched ~pid:i;
    t.has_timely <- Sched.has_timely t.sched;
    Mem.note_crash t.mem p.pid;
    record t p.pid Trace.Crashed
  | Done | Crashed -> ());
  t.crash_step.(i) <- None

(* Crash-recovery: a due restart revives a crashed process with a fresh
   fiber running its recovery closure.  All volatile state is gone — the
   old fiber was discarded at crash time and the queued inbox is drained
   away here — so the closure can only rebuild from what the Mem backend
   preserved (plus messages delivered after the restart). *)
let apply_restart t i =
  let p = t.procs.(i) in
  (match (p.p_status, p.recover) with
  | Crashed, Some main ->
    ignore (Network.drain t.net p.pid : (Id.t * Mm_net.Message.payload) list);
    p.p_status <- Ready;
    t.crashed_n <- t.crashed_n - 1;
    t.ready_n <- t.ready_n + 1;
    p.retry_at <- 0;
    p.backoff <- 0;
    install_fiber t p main;
    Mem.note_restart t.mem p.pid;
    record t p.pid Trace.Restarted;
    if not t.frozen.(i) then rinsert t i
  | (Ready | Unspawned | Done), _ | Crashed, None -> ());
  t.restart_step.(i) <- None;
  t.restarts_pending <- t.restarts_pending - 1

(* Pop every due key from [heap] and hand the pid to [apply] when the
   backing option array still has a schedule (a cleared slot means the
   entry went stale; skip it).  Clamped keys guarantee due <= step
   implies the recorded schedule step is also <= step. *)
let drain_crashes t =
  let h = t.crash_heap and n = t.n_procs in
  while (not (Minheap.is_empty h)) && Minheap.min_key h / n <= t.step do
    let i = Minheap.pop h mod n in
    if t.crash_step.(i) <> None then apply_crash t i
  done

let drain_restarts t =
  let h = t.restart_heap and n = t.n_procs in
  while (not (Minheap.is_empty h)) && Minheap.min_key h / n <= t.step do
    let i = Minheap.pop h mod n in
    if t.restart_step.(i) <> None then apply_restart t i
  done

(* A backoff expiry re-admits its process unless its world changed while
   it slept (crashed, frozen, already re-admitted by a restart).  The
   [retry_at] re-check also covers a newer, longer backoff superseding
   this stale entry. *)
let drain_retries t =
  let h = t.retry_heap and n = t.n_procs in
  while (not (Minheap.is_empty h)) && Minheap.min_key h / n <= t.step do
    let i = Minheap.pop h mod n in
    let p = t.procs.(i) in
    if p.p_status = Ready && (not t.frozen.(i)) && p.retry_at <= t.step then
      rinsert t i
  done

let heap_due h n = if Minheap.is_empty h then max_int else Minheap.min_key h / n

(* The earliest due step left in the three heaps (stale entries
   included, which only makes it early). *)
let refresh_fault_due t =
  let n = t.n_procs in
  t.fault_due <-
    min (heap_due t.crash_heap n)
      (min (heap_due t.restart_heap n) (heap_due t.retry_heap n))

let tick t =
  if t.step >= Network.next_wake t.net then Network.tick t.net ~now:t.step

let run t ?(max_steps = 1_000_000) ?(until = fun () -> false) () =
  let deadline = t.step + max_steps in
  let reason = ref None in
  while !reason = None do
    (* [fire_actions] sits between the drains, so take the gate once. *)
    let due = t.step >= t.fault_due in
    if due then begin
      drain_crashes t;
      drain_restarts t
    end;
    fire_actions t;
    if due then begin
      drain_retries t;
      refresh_fault_due t
    end;
    if until () then reason := Some Stopped
    else if t.step >= deadline then reason := Some Step_limit
    else if t.view.Sched.count = 0 then begin
      if t.ready_n > 0 || t.restarts_pending > 0 then begin
        (* Everyone alive is frozen or backing off (or a restart is still
           due): let time pass so deliveries, staged thaws, retries and
           restarts still happen; bounded by the deadline above. *)
        t.step <- t.step + 1;
        tick t
      end
      else reason := Some Quiescent
    end
    else begin
      t.view.Sched.now <- t.step;
      let chosen = Sched.pick t.sched t.sched_rng t.view in
      (match t.sched_log with
      | Some l -> t.sched_log <- Some (chosen :: l)
      | None -> ());
      let p = t.procs.(chosen) in
      let fin =
        match p.pending with
        | No_pending -> assert false
        | Start th ->
          p.pending <- No_pending;
          th ()
        | Pend (eff, k) ->
          p.pending <- No_pending;
          exec_eff t p eff k
      in
      (match fin with
      | Finished_fiber ->
        p.p_status <- Done;
        t.done_n <- t.done_n + 1;
        t.ready_n <- t.ready_n - 1;
        rremove t chosen
      | Suspended -> assert (has_pending p));
      p.steps <- p.steps + 1;
      t.step <- t.step + 1;
      (* A blocked op's backoff takes effect against the advanced clock:
         a 1-step delay keeps the process runnable for the very next
         pick (the old per-step rescan admitted it then too); anything
         longer parks it in the retry heap. *)
      if fin = Suspended && p.retry_at > t.step then begin
        rremove t chosen;
        push_due t t.retry_heap ~step:p.retry_at chosen
      end;
      if t.has_timely then Sched.note_step t.sched ~pid:chosen ~n:t.n_procs;
      tick t
    end
  done;
  t.stop <- Option.get !reason;
  t.stop

type summary = {
  reason : stop_reason;
  steps : int;
  net : Network.stats;
  mem : Mem.counters;
  blocked : int;
  coin_flips : int;
  crashed : bool array;
  trace : Trace.event list;
}

let summary t =
  {
    reason = t.stop;
    steps = t.step;
    net = Network.stats t.net;
    mem = Mem.total_counters t.mem;
    blocked = Mem.blocked_ops t.mem;
    coin_flips = t.coins;
    crashed = t.victims;
    trace = (match t.tr with None -> [] | Some tr -> Trace.to_list tr);
  }
