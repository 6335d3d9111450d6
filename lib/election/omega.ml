module Id = Mm_core.Id
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

(* The common leader output of the processes that never crash, if they
   all agree on one. *)
let agreed_leader ~crashed final_leaders =
  let vals = ref [] in
  Array.iteri
    (fun i l -> if not crashed.(i) then vals := l :: !vals)
    final_leaders;
  match List.sort_uniq compare !vals with [ Some l ] -> Some l | _ -> None

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
  let measure ~window_start ~window =
    let net = Engine.network eng and store = Engine.store eng in
    let net_snap = Network.snapshot net in
    let mem_snap = Mem.snapshot store in
    let emu_snap = Mem.emulated_msgs store in
    ignore (Engine.run eng ~max_steps:window ());
    {
      final_leaders;
      agreed_leader = agreed_leader ~crashed final_leaders;
      last_change_step = !last_change;
      total_changes = !total_changes;
      window_net = Network.diff_since net net_snap;
      window_mem = Mem.diff_since store mem_snap;
      window_emu_msgs = Mem.emulated_msgs store - emu_snap;
      window_start;
      run = Engine.summary eng;
    }
  in
  (report, measure)

(* Figure 3, one process.  [report] tells the harness about leadership
   output changes (host-level, not a simulation step). *)
let omega_process ~n ~eta ~mech ~state_regs ~report me () =
  let mi = Id.to_int me in
  let state = Array.make n initial_state in
  let hbtimeout = Array.make n (eta + 1) in
  let deadline = Array.make n None in
  let contenders = ref (Id.Set.singleton me) in
  let leader = ref None in
  let accused = ref false in
  let rec loop () =
    (* Drain the mailbox: notifications go to the mechanism, accusations
       accumulate until the leader branch consumes them (line 25). *)
    List.iter
      (fun (src, payload) ->
        if not (mech.Notification.on_message src payload) then
          match payload with
          | Accusation -> accused := true
          | _ -> ())
      (Proc.receive ());
    let previous_leader = !leader in
    (* line 9: leader := argmin (counter, id) over contenders *)
    let l =
      Id.Set.fold
        (fun q best ->
          let key = (state.(Id.to_int q).counter, Id.to_int q) in
          match best with
          | Some (bk, _) when bk <= key -> best
          | _ -> Some (key, q))
        !contenders None
    in
    let l = match l with Some (_, q) -> q | None -> assert false in
    leader := Some l;
    if previous_leader <> Some l then report (Id.to_int l);
    (* lines 10-11: p becomes leader -> tell all others *)
    if previous_leader <> Some me && Id.equal l me then
      List.iter
        (fun q -> if not (Id.equal q me) then mech.Notification.notify q)
        (Id.all n);
    (* lines 12-14: p loses leadership -> clear the active bit *)
    if previous_leader = Some me && not (Id.equal l me) then begin
      state.(mi) <- { (state.(mi)) with active = false };
      Proc.write state_regs.(mi) state.(mi)
    end;
    (* lines 15-27: leader duties *)
    if Id.equal l me then begin
      state.(mi) <- { (state.(mi)) with hb = state.(mi).hb + 1; active = true };
      Proc.write state_regs.(mi) state.(mi);
      let competitors = mech.Notification.poll () in
      List.iter
        (fun q ->
          let qi = Id.to_int q in
          contenders := Id.Set.add q !contenders;
          deadline.(qi) <- Some (Proc.my_steps () + hbtimeout.(qi));
          state.(qi) <- Proc.read state_regs.(qi);
          mech.Notification.notify q)
        competitors;
      if !accused then begin
        accused := false;
        state.(mi) <- { (state.(mi)) with counter = state.(mi).counter + 1 };
        Proc.write state_regs.(mi) state.(mi)
      end
    end;
    (* lines 28-39: monitor contenders *)
    for qi = 0 to n - 1 do
      if qi <> mi then
        match deadline.(qi) with
        | Some d when Proc.my_steps () >= d ->
          let previous_hb = state.(qi).hb in
          state.(qi) <- Proc.read state_regs.(qi);
          if state.(qi).hb > previous_hb then
            deadline.(qi) <- Some (Proc.my_steps () + hbtimeout.(qi))
          else begin
            contenders := Id.Set.remove (Id.of_int qi) !contenders;
            deadline.(qi) <- None;
            if state.(qi).active then begin
              Proc.send (Id.of_int qi) Accusation;
              hbtimeout.(qi) <- hbtimeout.(qi) + 1
            end
          end
        | Some _ | None -> ()
    done;
    loop ()
  in
  loop ()

let run ?(seed = 1) ?(eta = 16) ?(trace_capacity = 0) ?(timely = [ (0, 4) ])
    ?(crashes = []) ?(memory_failures = []) ?(warmup = 60_000)
    ?(window = 20_000) ?delay ?prepare ?(sched_base = Sched.Random)
    ?backend ~variant ~n () =
  let link, mech_of =
    match variant with
    | Reliable ->
      (Network.Reliable, fun _store ~me -> Notification.reliable ~me)
    | Fair_lossy p ->
      let regs = ref None in
      ( Network.Fair_lossy p,
        fun store ~me ->
          let r =
            match !regs with
            | Some r -> r
            | None ->
              let r = Notification.alloc_lossy store ~n in
              regs := Some r;
              r
          in
          Notification.lossy r ~me )
  in
  let sched = Sched.create ~timely sched_base in
  let eng =
    Engine.create ~seed ~sched ?delay ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link ~n ()
  in
  let store = Engine.store eng in
  let state_regs =
    Array.init n (fun p ->
        let owner = Id.of_int p in
        let others = List.filter (fun q -> not (Id.equal q owner)) (Id.all n) in
        Mem.alloc store
          ~name:(Printf.sprintf "STATE[%d]" p)
          ~owner ~shared_with:others initial_state)
  in
  let crashed = Engine.crash_plan eng crashes in
  let report, measure = leader_log eng ~crashed in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      let mech = mech_of store ~me:p in
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
        let mech = mech_of store ~me:p in
        omega_process ~n ~eta ~mech ~state_regs ~report p ()
      in
      Engine.spawn eng p ~recover
        (omega_process ~n ~eta ~mech ~state_regs ~report p))
    (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  (* Warmup, pausing at each scheduled memory failure to flip the host's
     registers into omission mode. *)
  let failures =
    List.sort (fun (_, a) (_, b) -> compare a b) memory_failures
  in
  List.iter
    (fun (pid, step) ->
      let remaining = step - Engine.now eng in
      if remaining > 0 then ignore (Engine.run eng ~max_steps:remaining ());
      Mem.fail_host_memory store (Id.of_int pid))
    failures;
  let remaining = warmup - Engine.now eng in
  if remaining > 0 then ignore (Engine.run eng ~max_steps:remaining ());
  measure ~window_start:warmup ~window
