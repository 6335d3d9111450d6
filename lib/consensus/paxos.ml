module Id = Mm_core.Id
module Decimal = Mm_core.Decimal
module Int_table = Mm_core.Int_table
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module Fd = Mm_election.Register_fd

type Mm_net.Message.payload += Learn of int * int

(* The per-process Paxos block, stored in one SWMR register. *)
type 'v block = {
  mbal : int;           (* highest ballot this process joined *)
  bal : int;            (* ballot of the last accepted value *)
  value : 'v option;    (* the accepted value *)
}

let empty_block = { mbal = 0; bal = 0; value = None }

(* Reads every block but [me]'s, stopping at the first one that joined a
   ballot above [b]: returns that ballot, or 0 when nobody overtook [b].
   [see] is shown every block read below [b].  Inlined into [ballot],
   as [Proposer.attempt] is into [Learner.propose]: the two saved frames
   made a 30-step, six-process Anarchy run of [run] about 15% cheaper
   (OCaml 5.1, 2-vCPU VM), where proposers spend nearly every step in
   this loop. *)
let[@inline] scan blocks ~me ~b see =
  let over = ref 0 in
  for j = 0 to Array.length blocks - 1 do
    if j <> me && !over = 0 then begin
      let blk = Proc.read blocks.(j) in
      if blk.mbal > b then over := blk.mbal else see blk
    end
  done;
  !over

let ballot blocks ~me ~b ~known v =
  (* Phase 1: join ballot b, learn the freshest accepted value. *)
  let k = { known with mbal = b } in
  Proc.write blocks.(me) k;
  let best = ref (k.bal, k.value) in
  let aborted =
    scan blocks ~me ~b (fun blk ->
        if blk.bal > fst !best then best := (blk.bal, blk.value))
  in
  if aborted > 0 then (k, Error aborted)
  else begin
    let v = match snd !best with Some w -> w | None -> v in
    (* Phase 2: accept (b, v); confirm nobody overtook us. *)
    let k = { mbal = b; bal = b; value = Some v } in
    Proc.write blocks.(me) k;
    let overtaken = scan blocks ~me ~b ignore in
    (k, if overtaken > 0 then Error overtaken else Ok v)
  end

(* ------------------------------------------------------------------ *)
(* The slot machinery: the per-slot register layout, the per-slot
   proposer and the learner, generalized over the member pids (a group
   need not be processes 0..n-1 — the sharded KV service runs one group
   per shard).  Host-level lazy register tables: conceptually the
   infinite per-slot arrays pre-exist (as in HBO's RVals/PVals); we
   materialize on first touch.  Slots are dense from 0, so both tables
   are [Int_table]s: a slot lookup on the per-step path costs an index,
   not a hash.  The engine is single-threaded, so this is race-free. *)

module Slots = struct
  type 'v t = {
    pids : Id.t array;
    prefix : string;
    (* [groups.(i)]: member i's registers, shared with the whole group.
       Validated once at [create]; every slot allocates from them. *)
    groups : Mem.group array;
    blocks : 'v block Mem.reg array Int_table.t;
    decisions : 'v option Mem.reg Int_table.t;
  }

  let create store ~pids ~prefix =
    if Array.length pids = 0 then invalid_arg "Slots.create: empty group";
    {
      pids;
      prefix;
      groups = Mem.peer_groups store pids;
      blocks = Int_table.create ();
      decisions = Int_table.create ();
    }

  let group_size t = Array.length t.pids

  let blocks t s =
    match Int_table.find t.blocks s with
    | a -> a
    | exception Not_found ->
      let head = t.prefix ^ "R[" ^ Decimal.of_int s ^ "][" in
      let a =
        Array.init (Array.length t.pids) (fun i ->
            Mem.alloc_in t.groups.(i)
              ~name:(head ^ Decimal.of_int i ^ "]")
              empty_block)
      in
      Int_table.replace t.blocks s a;
      a

  let decision t s =
    match Int_table.find t.decisions s with
    | r -> r
    | exception Not_found ->
      let r =
        Mem.alloc_in
          t.groups.(s mod Array.length t.pids)
          ~name:(String.concat "" [ t.prefix; "D["; Decimal.of_int s; "]" ])
          None
      in
      Int_table.replace t.decisions s r;
      r

  let read_decided t s = Proc.read (decision t s)
  let write_decision t s v = Proc.write (decision t s) (Some v)

  (* Host-side: an unmaterialized register was never written. *)
  let peek_decided t s =
    match Int_table.find t.decisions s with
    | r -> Mem.peek r
    | exception Not_found -> None

  let peek_max_ballot t s =
    match Int_table.find t.blocks s with
    | a -> Array.fold_left (fun m r -> Int.max m (Mem.peek r).mbal) 0 a
    | exception Not_found -> 0
end

module Proposer = struct
  type 'v t = {
    slots : 'v Slots.t;
    me : int;
    known : 'v block Int_table.t;  (* absent = [empty_block] *)
    next_round : int Int_table.t;  (* absent = round 0 *)
  }

  let create slots ~me =
    if me < 0 || me >= Slots.group_size slots then
      invalid_arg "Proposer.create: me out of range";
    { slots; me; known = Int_table.create (); next_round = Int_table.create () }

  (* Disk Paxos's recovery: the block in our own register is the last
     one we wrote, so it is the [known] that never regresses. *)
  let restore p ~slot =
    Int_table.replace p.known slot
      (Proc.read (Slots.blocks p.slots slot).(p.me))

  (* One ballot on slot [slot]: round r of member [me] is ballot
     r * n + me + 1; a lost ballot skips the rounds it was overtaken
     by.  Inlined (see [scan]). *)
  let[@inline] attempt p ~slot v =
    let n = Slots.group_size p.slots in
    let blocks = Slots.blocks p.slots slot in
    let round = Int_table.find_or p.next_round slot ~default:0 in
    Int_table.replace p.next_round slot (round + 1);
    let known = Int_table.find_or p.known slot ~default:empty_block in
    let k, result = ballot blocks ~me:p.me ~b:((round * n) + p.me + 1) ~known v in
    Int_table.replace p.known slot k;
    match result with
    | Ok chosen -> Some chosen
    | Error seen ->
      Int_table.replace p.next_round slot
        (Int.max (round + 1) ((seen / n) + 1));
      None
end

module Learner = struct
  type t = {
    slots : int Slots.t;
    prop : int Proposer.t;
    me : int;
    learned : int Int_table.t;  (* slot -> value; absent = not learned *)
    mutable next : int;  (* the applied prefix: the next slot to apply *)
    apply : slot:int -> int -> unit;
  }

  let create slots ~me ~apply =
    {
      slots;
      prop = Proposer.create slots ~me;
      me;
      learned = Int_table.create ();
      next = 0;
      apply;
    }

  let restore l ~slot = Proposer.restore l.prop ~slot
  let learn l s v = Int_table.replace l.learned s v

  let apply_next l v =
    l.apply ~slot:l.next v;
    l.next <- l.next + 1

  (* Advance the applied prefix from the learned slots, reading the
     decision register only when asked (reading registers every loop
     would defeat the message wake-up design).  Values are >= 0, so -1
     marks a slot not learned yet. *)
  let drain l ~read_register =
    let progress = ref true in
    while !progress do
      let v = Int_table.find_or l.learned l.next ~default:(-1) in
      if v >= 0 then apply_next l v
      else if read_register then begin
        match Slots.read_decided l.slots l.next with
        | Some v -> apply_next l v
        | None -> progress := false
      end
      else progress := false
    done

  let propose l v =
    let s = l.next in
    match Proposer.attempt l.prop ~slot:s v with
    | Some chosen ->
      Slots.write_decision l.slots s chosen;
      learn l s chosen;
      Array.iteri
        (fun j q -> if j <> l.me then Proc.send q (Learn (s, chosen)))
        l.slots.Slots.pids;
      drain l ~read_register:false
    | None ->
      (* Lost the ballot: someone else decided or is deciding this slot;
         catch up from the register before retrying. *)
      (match Slots.read_decided l.slots s with
      | Some c -> learn l s c
      | None -> ());
      Proc.yield ()
end

(* ------------------------------------------------------------------ *)
(* Single-decree consensus: slot 0 of a one-group log. *)

type oracle =
  | Static of int
  | Heartbeat
  | Anarchy

type outcome = {
  decisions : int option array;
  decide_step : int option array;
  max_ballot : int;
  run : Engine.summary;
}

let run ?(seed = 1) ?(oracle = Heartbeat) ?(max_steps = 2_000_000)
    ?(trace_capacity = 0) ?(crashes = []) ?prepare ?sched ?backend ~n
    ~inputs () =
  if Array.length inputs <> n then invalid_arg "Paxos.run: |inputs| <> n";
  if Array.exists (fun v -> v < 0) inputs then
    invalid_arg "Paxos.run: negative input";
  (match oracle with
  | Static l when l < 0 || l >= n ->
    invalid_arg
      (Printf.sprintf "Paxos.run: static leader %d outside [0, %d)" l n)
  | Static _ | Heartbeat | Anarchy -> ());
  let eng =
    Engine.create ~seed ?sched ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link:Network.Reliable ~n ()
  in
  let store = Engine.store eng in
  let pids = Array.init n Id.of_int in
  let slots = Slots.create store ~pids ~prefix:"" in
  let alive = Fd.registers store ~pids ~prefix:"" in
  let decisions = Array.make n None in
  let decide_step = Array.make n None in
  let crashed = Engine.crash_plan eng crashes in
  let paxos_process ?(recovering = false) p () =
    let pi = Id.to_int p in
    let det = Fd.create alive ~me:pi in
    let leads () =
      match oracle with
      | Static l -> l = pi
      | Anarchy -> true
      | Heartbeat ->
        Fd.step det;
        Fd.am_leader det
    in
    let decided = ref false in
    let learner =
      Learner.create slots ~me:pi ~apply:(fun ~slot:_ v ->
          decided := true;
          decisions.(pi) <- Some v;
          decide_step.(pi) <- Some (Engine.now eng))
    in
    (* Slot 0 only: [drain ~read_register:true] would go on to read (and
       so materialize) D[1]. *)
    let read_decision () =
      (match Slots.read_decided slots 0 with
      | Some v -> Learner.learn learner 0 v
      | None -> ());
      Learner.drain learner ~read_register:false
    in
    let on_message (_, m) =
      match m with Learn (s, v) -> Learner.learn learner s v | _ -> ()
    in
    (* React to a published decision: by message (the mailbox wake-up)
       or, every 64th loop, by reading the decision register; else
       propose when the oracle says we lead. *)
    let rec main_loop iter =
      List.iter on_message (Proc.receive ());
      Learner.drain learner ~read_register:false;
      if (not !decided) && iter mod 64 = 0 then read_decision ();
      if not !decided then begin
        if leads () then Learner.propose learner inputs.(pi)
        else Proc.yield ();
        if not !decided then main_loop (iter + 1)
      end
    in
    (* Crash-recovery boot: the proposer's volatile block must be rebuilt
       from its own crash-surviving register before any ballot — writing
       [empty_block] would regress an accepted (bal, value) and break
       Disk Paxos's core invariant.  Then a decision published while we
       were down ends the protocol immediately. *)
    if recovering then begin
      Learner.restore learner ~slot:0;
      read_decision ()
    end;
    if not !decided then main_loop 1
  in
  List.iter
    (fun p ->
      Engine.spawn eng p
        ~recover:(paxos_process ~recovering:true p)
        (paxos_process p))
    (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  let all_decided () = Decisions.all_correct_decided ~crashed decisions in
  ignore (Engine.run eng ~max_steps ~until:all_decided ());
  {
    decisions;
    decide_step;
    max_ballot = Slots.peek_max_ballot slots 0;
    run = Engine.summary eng;
  }
