module Id = Mm_core.Id
module Int_table = Mm_core.Int_table
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module Fd = Mm_election.Register_fd
module Paxos = Mm_consensus.Paxos

type command = {
  issuer : int;
  seq : int;
}

let pp_command fmt c = Format.fprintf fmt "c%d.%d" c.issuer c.seq

type Mm_net.Message.payload += Forward of int

(* No slot maps to two values: the first value seen at each slot is the
   one every later entry must repeat. *)
let agree logs =
  let seen = Int_table.create () in
  Array.for_all
    (List.for_all (fun (s, v) ->
         match Int_table.find seen s with
         | v' -> v = v'
         | exception Not_found ->
           Int_table.replace seen s v;
           true))
    logs

type outcome = {
  logs : (int * command) list array;
  consistent : bool;
  all_committed : bool;
  slots_used : int;
  duplicate_slots : int;
  run : Engine.summary;
}

(* One replica.  Commands are decided as their dense index
   [issuer * commands_per_proc + seq], which also indexes the flag maps,
   so nothing on the per-step path hashes; [my_commands] and [on_apply]
   speak indices too. *)
let log_process ?(recovering = false) ~n ~commands_per_proc ~sm ~alive
    ~my_commands ~on_apply me () =
  let mi = Id.to_int me in
  let det = Fd.create alive ~me:mi in
  let flags () = Bytes.make (n * commands_per_proc) '\000' in
  let mem set id = Bytes.get set id <> '\000' in
  (* Commands we are responsible for getting committed. *)
  let pending : int Queue.t = Queue.create () in
  List.iter (fun id -> Queue.add id pending) my_commands;
  (* Commands forwarded to us while we (appear to) lead. *)
  let forwarded : int Queue.t = Queue.create () in
  let forwarded_set = flags () in
  (* The applied log. *)
  let applied_cmds = flags () in
  let is_applied id = mem applied_cmds id in
  let apply ~slot id =
    let duplicate = is_applied id in
    Bytes.set applied_cmds id '\001';
    on_apply ~slot ~id ~duplicate
  in
  let learner = Paxos.Learner.create sm ~me:mi ~apply in
  let next_proposal () =
    (* prefer own pending work, then forwarded commands; skip anything
       already applied (at-least-once forwarding creates repeats) *)
    let rec pop q =
      match Queue.take_opt q with
      | None -> None
      | Some id -> if is_applied id then pop q else Some id
    in
    match pop pending with
    | Some id ->
      Queue.push id pending;
      (* keep until observed applied *)
      Some id
    | None -> (
      match pop forwarded with
      | Some id ->
        Bytes.set forwarded_set id '\000';
        Some id
      | None -> None)
  in
  let rec main_loop iter =
    List.iter
      (fun (_src, payload) ->
        match payload with
        | Forward id ->
          if (not (is_applied id)) && not (mem forwarded_set id) then begin
            Bytes.set forwarded_set id '\001';
            Queue.add id forwarded
          end
        | Paxos.Learn (s, id) -> Paxos.Learner.learn learner s id
        | _ -> ())
      (Proc.receive ());
    Fd.step det;
    Paxos.Learner.drain learner ~read_register:(iter mod 32 = 0);
    (if Fd.am_leader det then begin
       match next_proposal () with
       | None -> Proc.yield ()
       | Some id -> Paxos.Learner.propose learner id
     end
     else begin
       (* Follower: re-forward one unacknowledged command to the current
          leader hint, with backoff so the steady state stays quiet once
          everything is applied. *)
       (if iter mod 24 = 0 then
          match Queue.peek_opt pending with
          | Some id when not (is_applied id) ->
            Proc.send (Id.of_int (Fd.leader det)) (Forward id)
          | Some _ | None -> ());
       Proc.yield ()
     end);
    (* Drop own commands once they are applied. *)
    (match Queue.peek_opt pending with
    | Some id when is_applied id -> ignore (Queue.pop pending)
    | Some _ | None -> ());
    main_loop (iter + 1)
  in
  (* Crash-recovery boot: the volatile apply log is gone, but every
     decision survives in the slot registers.  Replay the whole decided
     prefix eagerly before joining the protocol — nothing is learned
     yet, so this is one register read per decided slot (an ABD round
     each under the emulated backend). *)
  if recovering then Paxos.Learner.drain learner ~read_register:true;
  main_loop 1

let run ?(seed = 1) ?(max_steps = 2_000_000) ?(trace_capacity = 0)
    ?(crashes = []) ?prepare ?sched ?backend ~n ~commands_per_proc () =
  let eng =
    Engine.create ~seed ?sched ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link:Network.Reliable ~n ()
  in
  let store = Engine.store eng in
  let pids = Array.init n Id.of_int in
  let sm = Paxos.Slots.create store ~pids ~prefix:"" in
  let alive = Fd.registers store ~pids ~prefix:"" in
  let crashed = Engine.crash_plan eng crashes in
  let logs = Array.make n [] in
  (* [until] runs on every engine step, so completion tracking must be
     O(n): count, per process, how many of the commands we are waiting
     for (every command of a process not planned to crash) it has
     applied. *)
  let wanted_total =
    commands_per_proc
    * Array.fold_left (fun a c -> if c then a else a + 1) 0 crashed
  in
  let counts = Array.make n 0 in
  let duplicate_slots = ref 0 in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      let my_commands =
        List.init commands_per_proc (fun seq -> (pi * commands_per_proc) + seq)
      in
      let on_apply ~slot ~id ~duplicate =
        logs.(pi) <- (slot, id) :: logs.(pi);
        if duplicate then incr duplicate_slots
        else if not crashed.(id / commands_per_proc) then
          counts.(pi) <- counts.(pi) + 1
      in
      (* Host reboot: the incarnation's apply log restarts from slot 0
         (re-applying the decided prefix from the registers), so the
         pre-crash observations are discarded — keeping them would show
         phantom duplicates next to the fresh replay. *)
      let recover () =
        logs.(pi) <- [];
        counts.(pi) <- 0;
        log_process ~recovering:true ~n ~commands_per_proc ~sm ~alive ~my_commands ~on_apply p ()
      in
      Engine.spawn eng p ~recover
        (log_process ~n ~commands_per_proc ~sm ~alive ~my_commands ~on_apply p))
    (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  let everyone_done () =
    let ok = ref true in
    for pi = 0 to n - 1 do
      if (not crashed.(pi)) && counts.(pi) < wanted_total then ok := false
    done;
    !ok
  in
  ignore (Engine.run eng ~max_steps ~until:everyone_done ());
  let logs = Array.map List.rev logs in
  let command id =
    { issuer = id / commands_per_proc; seq = id mod commands_per_proc }
  in
  {
    logs = Array.map (List.map (fun (s, id) -> (s, command id))) logs;
    consistent = agree logs;
    all_committed = everyone_done ();
    slots_used =
      Array.fold_left
        (List.fold_left (fun acc (s, _) -> max acc (s + 1)))
        0 logs;
    duplicate_slots = !duplicate_slots;
    run = Engine.summary eng;
  }
