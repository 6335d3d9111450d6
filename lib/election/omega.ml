module Id = Mm_core.Id
module Decimal = Mm_core.Decimal
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module Sched = Mm_sim.Sched

type variant =
  | Reliable
  | Fair_lossy of float

type Mm_net.Message.payload += Accusation

(* The triple stored in STATE[p] (Figure 3 line 1). *)
type state = {
  hb : int;
  counter : int;
  active : bool;
}

let initial_state = { hb = 0; counter = 0; active = false }

type outcome = {
  final_leaders : int option array;
  agreed_leader : int option;
  last_change_step : int;
  total_changes : int;
  window_net : Network.stats;
  window_mem : Mem.counters array;
  window_emu_msgs : int;
  window_start : int;
  run : Engine.summary;
}

type stop_rule = {
  opens_at : int;
  silent : bool;
}

(* The common leader output of the processes that never crash, if they
   all agree on one (-1: no correct process seen yet). *)
let agreed_leader ~crashed final_leaders =
  let rec go i (l : int) =
    if i = Array.length final_leaders then if l < 0 then None else Some l
    else if crashed.(i) then go (i + 1) l
    else
      match final_leaders.(i) with
      | Some l' when l < 0 || l' = l -> go (i + 1) l'
      | _ -> None
  in
  go 0 (-1)

(* Ω as observed: a common correct leader, already stable when the
   steady-state window opened. *)
let holds o =
  match o.agreed_leader with
  | None -> false
  | Some l -> (not o.run.crashed.(l)) && o.last_change_step <= o.window_start

let leader_log eng ~crashed =
  let final_leaders = Array.make (Engine.n eng) None in
  let last_change = ref 0 and total_changes = ref 0 in
  let report pi l =
    final_leaders.(pi) <- Some l;
    if not crashed.(pi) then begin
      last_change := Engine.now eng;
      incr total_changes
    end
  in
  let net = Engine.network eng and store = Engine.store eng in
  let snapshot () =
    (Network.snapshot net, Mem.snapshot store, Mem.emulated_msgs store)
  in
  (* Protocol sends: those not charged to emulated register rounds. *)
  let protocol_sends () = Network.sent_count net - Mem.emulated_msgs store in
  let outcome window_start (net0, mem0, emu0) =
    {
      final_leaders;
      agreed_leader = agreed_leader ~crashed final_leaders;
      last_change_step = !last_change;
      total_changes = !total_changes;
      window_net = Network.diff_since net net0;
      window_mem = Mem.diff_since store mem0;
      window_emu_msgs = Mem.emulated_msgs store - emu0;
      window_start;
      run = Engine.summary eng;
    }
  in
  let run_to step =
    let remaining = step - Engine.now eng in
    if remaining > 0 then ignore (Engine.run eng ~max_steps:remaining ())
  in
  let measure ~opens_at ~silent ~window ~cap =
    let fixed_at = cap - window in
    run_to (Int.min opens_at fixed_at);
    if Engine.now eng >= fixed_at then begin
      (* No window opening now could hold before the cap: the fixed
         window of the last [window] steps. *)
      let start = Engine.now eng and snap = snapshot () in
      ignore (Engine.run eng ~max_steps:window ());
      outcome start snap
    end
    else begin
      (* The window opens now and restarts after every leader change
         (and, when [silent], every protocol send); the run stops once
         it has held [window] steps.  [until] is read once per step, so
         a change made during step s restarts the window at s + 1. *)
      let start = ref (Engine.now eng) and snap = ref (snapshot ()) in
      let changes = ref !total_changes and sends = ref (protocol_sends ()) in
      let fixed = ref None in
      let until () =
        let now = Engine.now eng in
        if
          !total_changes <> !changes
          || (silent && protocol_sends () <> !sends)
        then begin
          changes := !total_changes;
          sends := protocol_sends ();
          start := now;
          snap := snapshot ()
        end;
        if now = fixed_at then fixed := Some (snapshot ());
        now - !start >= window
      in
      match Engine.run eng ~max_steps:(cap - Engine.now eng) ~until () with
      | Engine.Stopped | Engine.Quiescent -> outcome !start !snap
      | Engine.Step_limit ->
        (* The cap with no held window: judge the last [window] steps,
           as the fixed window does. *)
        outcome fixed_at (Option.get !fixed)
    end
  in
  (report, measure)

(* Figure 3, one process.  [report] tells the harness about leadership
   output changes (host-level, not a simulation step).

   An iteration allocates only the STATE records it writes: the
   contender set is a bool array, the leader an int (-1 = ⊥), a deadline
   an int (max_int = unmonitored), and the mailbox drain and the
   competitor walk are closures built once per incarnation. *)
let omega_process ~n ~eta ~mech ~state_regs ~report me () =
  let mi = Id.to_int me in
  let state = Array.make n initial_state in
  let hbtimeout = Array.make n (eta + 1) in
  let deadline = Array.make n max_int in
  let contender = Array.make n false in
  contender.(mi) <- true;
  let leader = ref (-1) in
  let accused = ref false in
  (* Notifications go to the mechanism, accusations accumulate until the
     leader branch consumes them (line 25). *)
  let rec drain = function
    | [] -> ()
    | (src, payload) :: rest ->
      (if not (mech.Notification.on_message src payload) then
         match payload with Accusation -> accused := true | _ -> ());
      drain rest
  in
  let rec admit = function
    | [] -> ()
    | q :: rest ->
      let qi = Id.to_int q in
      contender.(qi) <- true;
      deadline.(qi) <- Proc.my_steps () + hbtimeout.(qi);
      state.(qi) <- Proc.read state_regs.(qi);
      mech.Notification.notify q;
      admit rest
  in
  let rec loop () =
    drain (Proc.receive ());
    let previous_leader = !leader in
    (* line 9: leader := argmin (counter, id) over contenders; ids rise,
       so only a strictly smaller counter displaces the best so far *)
    let l = ref (-1) and best = ref 0 in
    for q = 0 to n - 1 do
      if contender.(q) && (!l < 0 || state.(q).counter < !best) then begin
        l := q;
        best := state.(q).counter
      end
    done;
    let l = !l in
    leader := l;
    if previous_leader <> l then report l;
    (* lines 10-11: p becomes leader -> tell all others *)
    if previous_leader <> mi && l = mi then
      for q = 0 to n - 1 do
        if q <> mi then mech.Notification.notify (Id.of_int q)
      done;
    (* lines 12-14: p loses leadership -> clear the active bit *)
    if previous_leader = mi && l <> mi then begin
      state.(mi) <- { (state.(mi)) with active = false };
      Proc.write state_regs.(mi) state.(mi)
    end;
    (* lines 15-27: leader duties *)
    if l = mi then begin
      state.(mi) <- { (state.(mi)) with hb = state.(mi).hb + 1; active = true };
      Proc.write state_regs.(mi) state.(mi);
      admit (mech.Notification.poll ());
      if !accused then begin
        accused := false;
        state.(mi) <- { (state.(mi)) with counter = state.(mi).counter + 1 };
        Proc.write state_regs.(mi) state.(mi)
      end
    end;
    (* lines 28-39: monitor contenders *)
    for qi = 0 to n - 1 do
      if qi <> mi then begin
        let d = deadline.(qi) in
        if d < max_int && Proc.my_steps () >= d then begin
          let previous_hb = state.(qi).hb in
          state.(qi) <- Proc.read state_regs.(qi);
          if state.(qi).hb > previous_hb then
            deadline.(qi) <- Proc.my_steps () + hbtimeout.(qi)
          else begin
            contender.(qi) <- false;
            deadline.(qi) <- max_int;
            if state.(qi).active then begin
              Proc.send (Id.of_int qi) Accusation;
              hbtimeout.(qi) <- hbtimeout.(qi) + 1
            end
          end
        end
      end
    done;
    loop ()
  in
  loop ()

let run ?(seed = 1) ?(eta = 16) ?(trace_capacity = 0) ?(timely = [ (0, 4) ])
    ?(crashes = []) ?(memory_failures = []) ?(warmup = 60_000)
    ?(window = 20_000) ?stop_rule ?delay ?prepare ?(sched_base = Sched.Random)
    ?backend ~variant ~n () =
  let link =
    match variant with
    | Reliable -> Network.Reliable
    | Fair_lossy p -> Network.Fair_lossy p
  in
  let sched = Sched.create ~timely sched_base in
  let eng =
    Engine.create ~seed ~sched ?delay ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link ~n ()
  in
  let store = Engine.store eng in
  let pids = Array.init n Id.of_int in
  let groups = Mem.peer_groups store pids in
  let state_regs =
    Array.mapi
      (fun p g ->
        Mem.alloc_in g ~name:("STATE[" ^ Decimal.of_int p ^ "]") initial_state)
      groups
  in
  let mech_of =
    match variant with
    | Reliable -> fun me -> Notification.reliable ~me
    | Fair_lossy _ ->
      let regs = Notification.alloc_lossy groups in
      fun me -> Notification.lossy regs ~me
  in
  let crashed = Engine.crash_plan eng crashes in
  let report, measure = leader_log eng ~crashed in
  Array.iter
    (fun p ->
      let pi = Id.to_int p in
      let mech = mech_of p in
      let report = report pi in
      (* Crash-recovery (host reboot): every volatile structure —
         contender set, heartbeat timers, the mechanism's notification
         state — is rebuilt from scratch; the crash-surviving STATE
         register is the only carry-over.  Bump the epoch counter so
         peers eventually rank a never-crashed contender above us, and
         clear the active bit (a rebooted process is not leading), then
         re-enter Figure 3 from line 1. *)
      let recover () =
        let st = Proc.read state_regs.(pi) in
        Proc.write state_regs.(pi)
          { st with counter = st.counter + 1; active = false };
        let mech = mech_of p in
        omega_process ~n ~eta ~mech ~state_regs ~report p ()
      in
      Engine.spawn eng p ~recover
        (omega_process ~n ~eta ~mech ~state_regs ~report p))
    pids;
  (match prepare with None -> () | Some f -> f eng);
  (* Warmup, pausing at each scheduled memory failure to flip the host's
     registers into omission mode. *)
  let failures =
    List.sort (fun (_, a) (_, b) -> Int.compare a b) memory_failures
  in
  List.iter
    (fun (pid, step) ->
      let remaining = step - Engine.now eng in
      if remaining > 0 then ignore (Engine.run eng ~max_steps:remaining ());
      Mem.fail_host_memory store (Id.of_int pid))
    failures;
  let opens_at, silent =
    match stop_rule with
    | None -> (warmup, false)
    | Some { opens_at; silent } -> (opens_at, silent)
  in
  measure ~opens_at ~silent ~window ~cap:(warmup + window)
