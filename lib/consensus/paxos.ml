module Id = Mm_core.Id
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc

type oracle =
  | Static of int
  | Heartbeat
  | Anarchy

type Mm_net.Message.payload += Paxos_decided of int

(* The per-process Paxos block, stored in one SWMR register. *)
type block = {
  mbal : int;           (* highest ballot this process joined *)
  bal : int;            (* ballot of the last accepted value *)
  value : int option;   (* the accepted value *)
}

let empty_block = { mbal = 0; bal = 0; value = None }

type outcome = {
  reason : Engine.stop_reason;
  decisions : int option array;
  decide_step : int option array;
  max_ballot : int;
  crashed : bool array;
  total_steps : int;
  net : Network.stats;
  mem_total : Mem.counters;
  mem_blocked : int;
  trace : Mm_sim.Trace.event list;
}

let run ?(seed = 1) ?(oracle = Heartbeat) ?(max_steps = 2_000_000)
    ?(trace_capacity = 0) ?(crashes = []) ?prepare ?sched ?backend ~n
    ~inputs () =
  if Array.length inputs <> n then invalid_arg "Paxos.run: |inputs| <> n";
  let eng =
    Engine.create ~seed ?sched ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link:Network.Reliable ~n ()
  in
  let store = Engine.store eng in
  let everyone_but p = List.filter (fun q -> not (Id.equal q p)) (Id.all n) in
  let blocks =
    Array.init n (fun i ->
        let owner = Id.of_int i in
        Mem.alloc store
          ~name:(Printf.sprintf "R[%d]" i)
          ~owner ~shared_with:(everyone_but owner) empty_block)
  in
  let decision =
    Mem.alloc store ~name:"D" ~owner:(Id.of_int 0)
      ~shared_with:(everyone_but (Id.of_int 0))
      None
  in
  let alive = Mm_election.Register_fd.registers store ~n in
  let decisions = Array.make n None in
  let decide_step = Array.make n None in
  let crashed = Array.make n false in
  let max_ballot = ref 0 in
  List.iter
    (fun (pid, step) ->
      crashed.(pid) <- true;
      Engine.crash_at eng (Id.of_int pid) step)
    crashes;
  let paxos_process ?(recovering = false) p () =
    let pi = Id.to_int p in
    let det = Mm_election.Register_fd.create alive ~me:pi in
    let leader_hint () =
      match oracle with
      | Static l -> l = pi
      | Anarchy -> true
      | Heartbeat -> Mm_election.Register_fd.am_leader det
    in
    let decide v =
      decisions.(pi) <- Some v;
      decide_step.(pi) <- Some (Engine.now eng)
    in
    (* The proposer's local mirror of its own block.  Invariant: our
       register writes never regress [bal] — an accepted (bal, value)
       stays in the block across later ballots, as Disk Paxos requires. *)
    let known = ref empty_block in
    (* One ballot attempt; Ok v on success, Error overtaking-ballot on
       abort. *)
    let attempt b =
      if b > !max_ballot then max_ballot := b;
      known := { !known with mbal = b };
      Proc.write blocks.(pi) !known;
      (* Phase 1: join ballot b, learn the freshest accepted value. *)
      let best = ref (!known.bal, !known.value) in
      let aborted = ref 0 in
      for j = 0 to n - 1 do
        if j <> pi && !aborted = 0 then begin
          let blk = Proc.read blocks.(j) in
          if blk.mbal > b then aborted := blk.mbal
          else if blk.bal > fst !best then best := (blk.bal, blk.value)
        end
      done;
      if !aborted > 0 then Error !aborted
      else begin
        let v =
          match snd !best with Some v -> v | None -> inputs.(pi)
        in
        (* Phase 2: accept (b, v); confirm nobody overtook us. *)
        known := { mbal = b; bal = b; value = Some v };
        Proc.write blocks.(pi) !known;
        let overtaken = ref 0 in
        for j = 0 to n - 1 do
          if j <> pi && !overtaken = 0 then begin
            let blk = Proc.read blocks.(j) in
            if blk.mbal > b then overtaken := blk.mbal
          end
        done;
        if !overtaken > 0 then Error !overtaken else Ok v
      end
    in
    let rec main_loop iter round =
      (* React to a published decision: by message (the mailbox wake-up)
         or, rarely, by reading the decision register. *)
      let incoming = Proc.receive () in
      let decided_msg =
        List.find_map
          (fun (_, m) -> match m with Paxos_decided v -> Some v | _ -> None)
          incoming
      in
      match decided_msg with
      | Some v -> decide v
      | None ->
        let from_reg =
          if iter mod 64 = 0 then Proc.read decision else None
        in
        (match from_reg with
        | Some v -> decide v
        | None ->
          (match oracle with
          | Heartbeat -> Mm_election.Register_fd.step det
          | Static _ | Anarchy -> ());
          if leader_hint () then begin
            let b = (round * n) + pi + 1 in
            match attempt b with
            | Ok v ->
              Proc.write decision (Some v);
              decide v;
              List.iter
                (fun q -> if not (Id.equal q p) then Proc.send q (Paxos_decided v))
                (Id.all n)
            | Error seen ->
              (* jump past the ballot that beat us *)
              let round' = max (round + 1) ((seen / n) + 1) in
              Proc.yield ();
              main_loop (iter + 1) round'
          end
          else begin
            Proc.yield ();
            main_loop (iter + 1) round
          end)
    in
    (* Crash-recovery boot: the proposer's volatile mirror must be
       rebuilt from its own crash-surviving block before any ballot —
       writing [empty_block] here would regress an accepted (bal, value)
       and break Disk Paxos's core invariant.  Then check the decision
       register: a value published while we were down ends the protocol
       immediately. *)
    if recovering then begin
      known := Proc.read blocks.(pi);
      match Proc.read decision with
      | Some v -> decide v
      | None -> main_loop 1 0
    end
    else main_loop 1 0
  in
  List.iter
    (fun p ->
      Engine.spawn eng p
        ~recover:(paxos_process ~recovering:true p)
        (paxos_process p))
    (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  let all_decided () =
    let ok = ref true in
    for i = 0 to n - 1 do
      if (not crashed.(i)) && decisions.(i) = None then ok := false
    done;
    !ok
  in
  let reason = Engine.run eng ~max_steps ~until:all_decided () in
  {
    reason;
    decisions;
    decide_step;
    max_ballot = !max_ballot;
    crashed;
    total_steps = Engine.now eng;
    net = Network.stats (Engine.network eng);
    mem_total = Mem.total_counters store;
    mem_blocked = Mem.blocked_ops store;
    trace =
      (match Engine.trace eng with
      | None -> []
      | Some tr -> Mm_sim.Trace.to_list tr);
  }

let agreement o =
  let vals =
    Array.to_list o.decisions |> List.filter_map Fun.id |> List.sort_uniq compare
  in
  List.length vals <= 1

let validity ~inputs o =
  Array.for_all
    (function
      | None -> true
      | Some v -> Array.exists (Int.equal v) inputs)
    o.decisions

let all_correct_decided o =
  let ok = ref true in
  Array.iteri
    (fun i d -> if (not o.crashed.(i)) && d = None then ok := false)
    o.decisions;
  !ok
