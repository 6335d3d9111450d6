module Id = Mm_core.Id
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc

type Mm_net.Message.payload += Wake

type outcome = {
  reason : Engine.stop_reason;
  entries : int array;
  safety_violations : int;
  wait_reads : int array;
  wait_reads_local : int array;
  spin_reads : int array;
  messages_sent : int;
  steps : int;
  mem_total : Mem.counters;
  mem_blocked : int;
  trace : Mm_sim.Trace.event list;
}

let wait_reads_per_entry o =
  let total_entries = Array.fold_left ( + ) 0 o.entries in
  if total_entries = 0 then 0.0
  else
    float_of_int (Array.fold_left ( + ) 0 o.wait_reads)
    /. float_of_int total_entries

(* Host-level critical-section monitor: every entry checks that nobody
   else is inside. *)
type monitor = {
  mutable inside : int;
  mutable violations : int;
  entries : int array;
}

let enter_cs mon pi =
  if mon.inside <> 0 then mon.violations <- mon.violations + 1;
  mon.inside <- mon.inside + 1;
  mon.entries.(pi) <- mon.entries.(pi) + 1

let exit_cs mon = mon.inside <- mon.inside - 1

let critical_section mon pi ~cs_work =
  enter_cs mon pi;
  for _ = 1 to cs_work do
    Proc.yield ()
  done;
  exit_cs mon

let finish_outcome ?wait_reads_local eng mon wait_reads spin_reads reason =
  let n = Array.length wait_reads in
  {
    reason;
    entries = mon.entries;
    safety_violations = mon.violations;
    wait_reads;
    wait_reads_local =
      (match wait_reads_local with Some a -> a | None -> Array.make n 0);
    spin_reads;
    messages_sent = (Network.stats (Engine.network eng)).Network.sent;
    steps = Engine.now eng;
    mem_total = Mem.total_counters (Engine.store eng);
    mem_blocked = Mem.blocked_ops (Engine.store eng);
    trace =
      (match Engine.trace eng with
      | None -> []
      | Some tr -> Mm_sim.Trace.to_list tr);
  }

(* --- Lamport bakery --- *)

let run_bakery ?(seed = 1) ?(max_steps = 5_000_000) ?(cs_work = 4)
    ?(trace_capacity = 0) ?prepare ?sched ?backend ~n ~entries () =
  let eng =
    Engine.create ~seed ?sched ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link:Network.Reliable ~n ()
  in
  let store = Engine.store eng in
  let everyone_but p = List.filter (fun q -> not (Id.equal q p)) (Id.all n) in
  let choosing =
    Array.init n (fun i ->
        let owner = Id.of_int i in
        Mem.alloc store
          ~name:(Printf.sprintf "choosing[%d]" i)
          ~owner ~shared_with:(everyone_but owner) false)
  in
  let number =
    Array.init n (fun i ->
        let owner = Id.of_int i in
        Mem.alloc store
          ~name:(Printf.sprintf "number[%d]" i)
          ~owner ~shared_with:(everyone_but owner) 0)
  in
  let mon = { inside = 0; violations = 0; entries = Array.make n 0 } in
  let wait_reads = Array.make n 0 in
  let spin_reads = Array.make n 0 in
  let bakery_process p () =
    let pi = Id.to_int p in
    for _ = 1 to entries do
      (* doorway *)
      Proc.write choosing.(pi) true;
      let m = ref 0 in
      for j = 0 to n - 1 do
        let nj = Proc.read number.(j) in
        if nj > !m then m := nj
      done;
      let my_number = 1 + !m in
      Proc.write number.(pi) my_number;
      Proc.write choosing.(pi) false;
      (* wait section: these are the spins the paper's §1 points at.  The
         first read of each wait loop is the mandatory check; every
         re-read after a failed check is an unprompted spin. *)
      for j = 0 to n - 1 do
        if j <> pi then begin
          let rec await_not_choosing first =
            wait_reads.(pi) <- wait_reads.(pi) + 1;
            if not first then spin_reads.(pi) <- spin_reads.(pi) + 1;
            if Proc.read choosing.(j) then await_not_choosing false
          in
          await_not_choosing true;
          let rec await_turn first =
            wait_reads.(pi) <- wait_reads.(pi) + 1;
            if not first then spin_reads.(pi) <- spin_reads.(pi) + 1;
            let nj = Proc.read number.(j) in
            if nj <> 0 && (nj, j) < (my_number, pi) then await_turn false
          in
          await_turn true
        end
      done;
      critical_section mon pi ~cs_work;
      Proc.write number.(pi) 0
    done
  in
  List.iter (fun p -> Engine.spawn eng p (bakery_process p)) (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  let reason = Engine.run eng ~max_steps () in
  finish_outcome eng mon wait_reads spin_reads reason

(* --- m&m ticket lock with message wake-ups --- *)

let run_mm ?(seed = 1) ?(max_steps = 5_000_000) ?(cs_work = 4)
    ?(trace_capacity = 0) ?prepare ?sched ?backend ~n ~entries () =
  let eng =
    Engine.create ~seed ?sched ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link:Network.Reliable ~n ()
  in
  let store = Engine.store eng in
  let owner0 = Id.of_int 0 in
  let everyone_but p = List.filter (fun q -> not (Id.equal q p)) (Id.all n) in
  let next_ticket =
    Mem.alloc store ~name:"NEXT" ~owner:owner0 ~shared_with:(everyone_but owner0) 0
  in
  let serving =
    Mem.alloc store ~name:"SERVING" ~owner:owner0
      ~shared_with:(everyone_but owner0) 0
  in
  let waiting =
    Array.init n (fun i ->
        let owner = Id.of_int i in
        Mem.alloc store
          ~name:(Printf.sprintf "WAITING[%d]" i)
          ~owner ~shared_with:(everyone_but owner) (-1))
  in
  let mon = { inside = 0; violations = 0; entries = Array.make n 0 } in
  let wait_reads = Array.make n 0 in
  (* No unprompted re-reads exist in this lock: waiters sleep on the
     mailbox and only recheck SERVING after a Wake.  [spin_reads] stays
     all-zero by construction — the §1 invariant the checker asserts. *)
  let spin_reads = Array.make n 0 in
  let mm_process p () =
    let pi = Id.to_int p in
    for _ = 1 to entries do
      (* Ticket via fetch-and-add (RDMA atomic). *)
      let t =
        Proc.atomic (fun () ->
            let t = Mem.read next_ticket ~by:p in
            Mem.write next_ticket ~by:p (t + 1);
            t)
      in
      Proc.write waiting.(pi) t;
      wait_reads.(pi) <- wait_reads.(pi) + 1;
      let s = Proc.read serving in
      if s <> t then begin
        (* Sleep on the mailbox: no register reads while blocked.  A Wake
           triggers one recheck; stale wakes from earlier handoffs are
           filtered by the recheck. *)
        let rec sleep () =
          let woken =
            List.exists
              (fun (_, m) -> match m with Wake -> true | _ -> false)
              (Proc.receive ())
          in
          if woken then begin
            wait_reads.(pi) <- wait_reads.(pi) + 1;
            if Proc.read serving <> t then begin
              Proc.yield ();
              sleep ()
            end
          end
          else begin
            Proc.yield ();
            sleep ()
          end
        in
        sleep ()
      end;
      Proc.write waiting.(pi) (-1);
      critical_section mon pi ~cs_work;
      (* Handoff: advance SERVING (only the holder writes it), scan the
         waiting array once, wake the next ticket holder if present. *)
      let s' = Proc.read serving + 1 in
      Proc.write serving s';
      let next = ref None in
      for j = 0 to n - 1 do
        if !next = None && Proc.read waiting.(j) = s' then next := Some j
      done;
      match !next with
      | Some j -> Proc.send (Id.of_int j) Wake
      | None -> ()
    done
  in
  List.iter (fun p -> Engine.spawn eng p (mm_process p)) (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  let reason = Engine.run eng ~max_steps () in
  finish_outcome eng mon wait_reads spin_reads reason

(* --- local-spin ticket lock: the prior-art design point --- *)

let run_local_spin ?(seed = 1) ?(max_steps = 5_000_000) ?(cs_work = 4)
    ?(trace_capacity = 0) ?prepare ?sched ?backend ~n ~entries () =
  let eng =
    Engine.create ~seed ?sched ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link:Network.Reliable ~n ()
  in
  let store = Engine.store eng in
  let owner0 = Id.of_int 0 in
  let everyone_but p = List.filter (fun q -> not (Id.equal q p)) (Id.all n) in
  let next_ticket =
    Mem.alloc store ~name:"NEXT" ~owner:owner0 ~shared_with:(everyone_but owner0) 0
  in
  let serving =
    Mem.alloc store ~name:"SERVING" ~owner:owner0
      ~shared_with:(everyone_but owner0) 0
  in
  let waiting =
    Array.init n (fun i ->
        let owner = Id.of_int i in
        Mem.alloc store
          ~name:(Printf.sprintf "WAITING[%d]" i)
          ~owner ~shared_with:(everyone_but owner) (-1))
  in
  (* Each waiter spins on the GRANT register it owns: local spin. *)
  let grant =
    Array.init n (fun i ->
        let owner = Id.of_int i in
        Mem.alloc store
          ~name:(Printf.sprintf "GRANT[%d]" i)
          ~owner ~shared_with:(everyone_but owner) (-1))
  in
  let mon = { inside = 0; violations = 0; entries = Array.make n 0 } in
  let wait_reads = Array.make n 0 in
  let wait_reads_local = Array.make n 0 in
  let spin_reads = Array.make n 0 in
  let local_spin_process p () =
    let pi = Id.to_int p in
    for _ = 1 to entries do
      let t =
        Proc.atomic (fun () ->
            let t = Mem.read next_ticket ~by:p in
            Mem.write next_ticket ~by:p (t + 1);
            t)
      in
      Proc.write waiting.(pi) t;
      wait_reads.(pi) <- wait_reads.(pi) + 1;
      let s = Proc.read serving in
      if s <> t then begin
        (* Spin on our OWN register until the predecessor grants us the
           ticket: every read here is local, but each re-read after a
           failed check is still an unprompted spin. *)
        let rec spin first =
          wait_reads.(pi) <- wait_reads.(pi) + 1;
          wait_reads_local.(pi) <- wait_reads_local.(pi) + 1;
          if not first then spin_reads.(pi) <- spin_reads.(pi) + 1;
          if Proc.read grant.(pi) <> t then spin false
        in
        spin true
      end;
      Proc.write waiting.(pi) (-1);
      critical_section mon pi ~cs_work;
      (* Handoff by remote write instead of message. *)
      let s' = Proc.read serving + 1 in
      Proc.write serving s';
      let next = ref None in
      for j = 0 to n - 1 do
        if !next = None && Proc.read waiting.(j) = s' then next := Some j
      done;
      match !next with
      | Some j -> Proc.write grant.(j) s'
      | None -> ()
    done
  in
  List.iter (fun p -> Engine.spawn eng p (local_spin_process p)) (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  let reason = Engine.run eng ~max_steps () in
  finish_outcome ~wait_reads_local eng mon wait_reads spin_reads reason
