module Id = Mm_core.Id
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module Fd = Mm_election.Register_fd

type command = {
  issuer : int;
  seq : int;
}

let pp_command fmt c = Format.fprintf fmt "c%d.%d" c.issuer c.seq

type Mm_net.Message.payload +=
  | Forward of command
  | Learn of int * command

(* Per-slot Paxos block in a SWMR register. *)
type 'v block = {
  mbal : int;
  bal : int;
  value : 'v option;
}

let empty_block = { mbal = 0; bal = 0; value = None }

(* ------------------------------------------------------------------ *)
(* Reusable slot machinery: the per-slot register layout and the
   Disk-Paxos ballot, generalized over the decided value type and over
   the member pids (a group need not be processes 0..n-1 — the sharded
   KV service runs one group per shard).  Host-level lazy register
   tables: conceptually the infinite per-slot arrays pre-exist (as in
   HBO's RVals/PVals); we materialize on first touch.  The engine is
   single-threaded, so this is race-free. *)

module Slots = struct
  type 'v t = {
    store : Mem.store;
    pids : Id.t array;
    prefix : string;
    blocks : (int, 'v block Mem.reg array) Hashtbl.t;
    decisions : (int, 'v option Mem.reg) Hashtbl.t;
  }

  let create store ~pids ~prefix =
    if Array.length pids = 0 then invalid_arg "Slots.create: empty group";
    { store; pids; prefix; blocks = Hashtbl.create 32; decisions = Hashtbl.create 32 }

  let group_size t = Array.length t.pids

  let others t owner =
    Array.to_list t.pids |> List.filter (fun q -> not (Id.equal q owner))

  let blocks t s =
    match Hashtbl.find_opt t.blocks s with
    | Some a -> a
    | None ->
      let a =
        Array.init (Array.length t.pids) (fun i ->
            let owner = t.pids.(i) in
            Mem.alloc t.store
              ~name:(Printf.sprintf "%sR[%d][%d]" t.prefix s i)
              ~owner ~shared_with:(others t owner) empty_block)
      in
      Hashtbl.add t.blocks s a;
      a

  let decision t s =
    match Hashtbl.find_opt t.decisions s with
    | Some r -> r
    | None ->
      let owner = t.pids.(s mod Array.length t.pids) in
      let r =
        Mem.alloc t.store
          ~name:(Printf.sprintf "%sD[%d]" t.prefix s)
          ~owner ~shared_with:(others t owner) None
      in
      Hashtbl.add t.decisions s r;
      r

  let read_decided t s = Proc.read (decision t s)
  let write_decision t s v = Proc.write (decision t s) (Some v)

  let peek_decided t s =
    (* Host-side: an unmaterialized decision register was never written. *)
    match Hashtbl.find_opt t.decisions s with
    | None -> None
    | Some r -> Mem.peek r
end

module Proposer = struct
  type 'v t = {
    slots : 'v Slots.t;
    me : int;
    known : (int, 'v block) Hashtbl.t;
    next_round : (int, int) Hashtbl.t;
  }

  let create slots ~me =
    if me < 0 || me >= Slots.group_size slots then
      invalid_arg "Proposer.create: me out of range";
    { slots; me; known = Hashtbl.create 16; next_round = Hashtbl.create 16 }

  let get tbl s d = Option.value ~default:d (Hashtbl.find_opt tbl s)

  (* One Disk-Paxos ballot on slot [slot] proposing [v].  Returns the
     chosen value on success (which may be an adopted earlier proposal
     rather than [v]). *)
  let attempt p ~slot v =
    let n = Slots.group_size p.slots in
    let mi = p.me in
    let blocks = Slots.blocks p.slots slot in
    let round = get p.next_round slot 1 in
    Hashtbl.replace p.next_round slot (round + 1);
    let b = (round * n) + mi + 1 in
    let k = { (get p.known slot empty_block) with mbal = b } in
    Hashtbl.replace p.known slot k;
    Proc.write blocks.(mi) k;
    let best = ref (k.bal, k.value) in
    let aborted = ref 0 in
    for j = 0 to n - 1 do
      if j <> mi && !aborted = 0 then begin
        let blk = Proc.read blocks.(j) in
        if blk.mbal > b then aborted := blk.mbal
        else if blk.bal > fst !best then best := (blk.bal, blk.value)
      end
    done;
    if !aborted > 0 then begin
      Hashtbl.replace p.next_round slot (max (round + 1) ((!aborted / n) + 1));
      None
    end
    else begin
      let v = match snd !best with Some v -> v | None -> v in
      let k = { mbal = b; bal = b; value = Some v } in
      Hashtbl.replace p.known slot k;
      Proc.write blocks.(mi) k;
      let overtaken = ref 0 in
      for j = 0 to n - 1 do
        if j <> mi && !overtaken = 0 then begin
          let blk = Proc.read blocks.(j) in
          if blk.mbal > b then overtaken := blk.mbal
        end
      done;
      if !overtaken > 0 then begin
        Hashtbl.replace p.next_round slot (max (round + 1) ((!overtaken / n) + 1));
        None
      end
      else Some v
    end
end

(* The leader hint the log (and the KV service) routes commands to: the
   failure detector's smallest unsuspected index. *)
let leader_hint = Fd.leader

type outcome = {
  logs : (int * command) list array;
  consistent : bool;
  all_committed : bool;
  slots_used : int;
  duplicate_slots : int;
  run : Engine.summary;
}

let log_process ?(recovering = false) ~n ~sm ~alive ~my_commands ~on_apply me () =
  let mi = Id.to_int me in
  let det = Fd.create alive ~me:mi in
  let prop = Proposer.create sm ~me:mi in
  (* Commands we are responsible for getting committed. *)
  let pending : command Queue.t = Queue.create () in
  List.iter (fun c -> Queue.add c pending) my_commands;
  (* Commands forwarded to us while we (appear to) lead. *)
  let forwarded : command Queue.t = Queue.create () in
  let forwarded_set : (command, unit) Hashtbl.t = Hashtbl.create 32 in
  (* The applied log. *)
  let applied_cmds : (command, unit) Hashtbl.t = Hashtbl.create 32 in
  let learn_cache : (int, command) Hashtbl.t = Hashtbl.create 32 in
  let apply_next = ref 0 in
  let is_applied c = Hashtbl.mem applied_cmds c in
  let apply s c =
    let duplicate = is_applied c in
    Hashtbl.replace applied_cmds c ();
    on_apply ~slot:s ~cmd:c ~duplicate;
    incr apply_next
  in
  (* Advance the applied prefix from the learn cache, falling back to the
     decision register only when asked (reading registers every loop
     would defeat the message wake-up design). *)
  let drain_learned ~read_register =
    let progress = ref true in
    while !progress do
      let s = !apply_next in
      match Hashtbl.find_opt learn_cache s with
      | Some c -> apply s c
      | None ->
        if read_register then begin
          match Slots.read_decided sm s with
          | Some c -> apply s c
          | None -> progress := false
        end
        else progress := false
    done
  in
  let next_proposal () =
    (* prefer own pending work, then forwarded commands; skip anything
       already applied (at-least-once forwarding creates repeats) *)
    let rec pop q =
      match Queue.take_opt q with
      | None -> None
      | Some c -> if is_applied c then pop q else Some c
    in
    match pop pending with
    | Some c ->
      Queue.push c pending;
      (* keep until observed applied *)
      Some c
    | None -> (
      match pop forwarded with
      | Some c ->
        Hashtbl.remove forwarded_set c;
        Some c
      | None -> None)
  in
  let rec main_loop iter =
    List.iter
      (fun (_src, payload) ->
        match payload with
        | Forward c ->
          if (not (is_applied c)) && not (Hashtbl.mem forwarded_set c) then begin
            Hashtbl.replace forwarded_set c ();
            Queue.add c forwarded
          end
        | Learn (s, c) -> Hashtbl.replace learn_cache s c
        | _ -> ())
      (Proc.receive ());
    Fd.step det;
    drain_learned ~read_register:(iter mod 32 = 0);
    let i_lead = Fd.am_leader det in
    (if i_lead then begin
       match next_proposal () with
       | None -> Proc.yield ()
       | Some cmd -> (
         let s = !apply_next in
         match Proposer.attempt prop ~slot:s cmd with
         | Some chosen ->
           Slots.write_decision sm s chosen;
           Hashtbl.replace learn_cache s chosen;
           List.iter
             (fun q ->
               if not (Id.equal q me) then Proc.send q (Learn (s, chosen)))
             (Id.all n);
           drain_learned ~read_register:false
         | None ->
           (* Lost the ballot: someone else decided or is deciding this
              slot; catch up from the register before retrying. *)
           (match Slots.read_decided sm s with
           | Some c -> Hashtbl.replace learn_cache s c
           | None -> ());
           Proc.yield ())
     end
     else begin
       (* Follower: re-forward one unacknowledged command to the current
          leader hint, with backoff so the steady state stays quiet once
          everything is applied. *)
       (if iter mod 24 = 0 then
          match Queue.peek_opt pending with
          | Some c when not (is_applied c) ->
            Proc.send (Id.of_int (leader_hint det)) (Forward c)
          | Some _ | None -> ());
       Proc.yield ()
     end);
    (* Drop own commands once they are applied. *)
    (match Queue.peek_opt pending with
    | Some c when is_applied c -> ignore (Queue.pop pending)
    | Some _ | None -> ());
    main_loop (iter + 1)
  in
  (* Crash-recovery boot: the volatile apply log is gone, but every
     decision survives in the slot registers.  Replay the whole decided
     prefix eagerly before joining the protocol — the learn cache is
     empty, so this is one register read per decided slot (an ABD round
     each under the emulated backend). *)
  if recovering then drain_learned ~read_register:true;
  main_loop 1

let run ?(seed = 1) ?(max_steps = 2_000_000) ?(trace_capacity = 0)
    ?(crashes = []) ?prepare ?sched ?backend ~n ~commands_per_proc () =
  let eng =
    Engine.create ~seed ?sched ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link:Network.Reliable ~n ()
  in
  let store = Engine.store eng in
  let sm =
    Slots.create store ~pids:(Array.init n Id.of_int) ~prefix:""
  in
  let alive = Fd.registers store ~n in
  let crashed = Engine.crash_plan eng crashes in
  let logs = Array.make n [] in
  (* [until] runs on every engine step, so completion tracking must be
     O(n): count, per process, how many of the commands we are waiting
     for it has applied. *)
  let wanted : (command, unit) Hashtbl.t = Hashtbl.create 32 in
  for pi = 0 to n - 1 do
    if not crashed.(pi) then
      for seq = 0 to commands_per_proc - 1 do
        Hashtbl.replace wanted { issuer = pi; seq } ()
      done
  done;
  let wanted_total = Hashtbl.length wanted in
  let counts = Array.make n 0 in
  let duplicate_slots = ref 0 in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      let my_commands =
        List.init commands_per_proc (fun seq -> { issuer = pi; seq })
      in
      let on_apply ~slot ~cmd ~duplicate =
        logs.(pi) <- (slot, cmd) :: logs.(pi);
        if duplicate then incr duplicate_slots
        else if Hashtbl.mem wanted cmd then counts.(pi) <- counts.(pi) + 1
      in
      (* Host reboot: the incarnation's apply log restarts from slot 0
         (re-applying the decided prefix from the registers), so the
         pre-crash observations are discarded — keeping them would show
         phantom duplicates next to the fresh replay. *)
      let recover () =
        logs.(pi) <- [];
        counts.(pi) <- 0;
        log_process ~recovering:true ~n ~sm ~alive ~my_commands ~on_apply p ()
      in
      Engine.spawn eng p ~recover
        (log_process ~n ~sm ~alive ~my_commands ~on_apply p))
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
  (* Consistency: no slot maps to two different commands anywhere. *)
  let slot_values : (int, command) Hashtbl.t = Hashtbl.create 64 in
  let consistent = ref true in
  Array.iter
    (List.iter (fun (s, c) ->
         match Hashtbl.find_opt slot_values s with
         | None -> Hashtbl.add slot_values s c
         | Some c' -> if c <> c' then consistent := false))
    logs;
  let slots_used =
    Hashtbl.fold (fun s _ acc -> max acc (s + 1)) slot_values 0
  in
  {
    logs;
    consistent = !consistent;
    all_committed = everyone_done ();
    slots_used;
    duplicate_slots = !duplicate_slots;
    run = Engine.summary eng;
  }
