module Id = Mm_core.Id
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc

type Mm_net.Message.payload += Wake

type algo =
  | Bakery
  | Local_spin
  | Mm

type outcome = {
  entries : int array;
  safety_violations : int;
  wait_reads : int array;
  wait_reads_local : int array;
  spin_reads : int array;
  run : Engine.summary;
}

let wait_reads_per_entry o =
  let total_entries = Array.fold_left ( + ) 0 o.entries in
  if total_entries = 0 then 0.0
  else
    float_of_int (Array.fold_left ( + ) 0 o.wait_reads)
    /. float_of_int total_entries

(* Host-level critical-section monitor and wait counters: every entry
   checks that nobody else is inside. *)
type monitor = {
  mutable inside : int;
  mutable violations : int;
  entered : int array;
  reads : int array;        (* wait_reads *)
  local_reads : int array;  (* wait_reads_local *)
  spins : int array;        (* spin_reads *)
}

let critical_section mon pi ~cs_work =
  if mon.inside <> 0 then mon.violations <- mon.violations + 1;
  mon.inside <- mon.inside + 1;
  mon.entered.(pi) <- mon.entered.(pi) + 1;
  for _ = 1 to cs_work do
    Proc.yield ()
  done;
  mon.inside <- mon.inside - 1

(* One wait-section read; every re-read after a failed check ([first]
   false) is an unprompted spin. *)
let count_read mon pi ~first =
  mon.reads.(pi) <- mon.reads.(pi) + 1;
  if not first then mon.spins.(pi) <- mon.spins.(pi) + 1

let everyone_but ~n p = List.filter (fun q -> not (Id.equal q p)) (Id.all n)

(* One register [name[i]] owned by each process i, shared with all. *)
let per_process store ~n name init =
  Array.init n (fun i ->
      let owner = Id.of_int i in
      Mem.alloc store
        ~name:(Printf.sprintf "%s[%d]" name i)
        ~owner ~shared_with:(everyone_but ~n owner) init)

(* --- Lamport bakery --- *)

let bakery store ~n ~entries ~cs_work mon =
  let choosing = per_process store ~n "choosing" false in
  let number = per_process store ~n "number" 0 in
  fun p () ->
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
      (* wait section: these are the spins the paper's §1 points at. *)
      for j = 0 to n - 1 do
        if j <> pi then begin
          let rec await_not_choosing first =
            count_read mon pi ~first;
            if Proc.read choosing.(j) then await_not_choosing false
          in
          await_not_choosing true;
          let rec await_turn first =
            count_read mon pi ~first;
            let nj = Proc.read number.(j) in
            if nj <> 0 && (nj, j) < (my_number, pi) then await_turn false
          in
          await_turn true
        end
      done;
      critical_section mon pi ~cs_work;
      Proc.write number.(pi) 0
    done

(* --- ticket locks: local-spin (prior art) and m&m --- *)

(* NEXT hands out tickets, SERVING holds the ticket being served and
   WAITING[i] the ticket process i waits with (-1: none).  The two locks
   differ only in how a waiter blocks and how the exiting process hands
   over: local-spin spins on a GRANT register the waiter owns and hands
   over by a remote write; m&m sleeps on its mailbox and hands over by
   one Wake message. *)
let ticket store ~local_spin ~n ~entries ~cs_work mon =
  let owner0 = Id.of_int 0 in
  let shared name =
    Mem.alloc store ~name ~owner:owner0 ~shared_with:(everyone_but ~n owner0) 0
  in
  let next_ticket = shared "NEXT" in
  let serving = shared "SERVING" in
  let waiting = per_process store ~n "WAITING" (-1) in
  let grant = if local_spin then per_process store ~n "GRANT" (-1) else [||] in
  let await pi t =
    if local_spin then begin
      (* Every read here is local, but each re-read after a failed check
         is still an unprompted spin. *)
      let rec spin first =
        count_read mon pi ~first;
        mon.local_reads.(pi) <- mon.local_reads.(pi) + 1;
        if Proc.read grant.(pi) <> t then spin false
      in
      spin true
    end
    else begin
      (* Sleep on the mailbox: no register reads while blocked.  A Wake
         triggers one (prompted) recheck; stale wakes from earlier
         handoffs are filtered by the recheck, so [spin_reads] stays
         all-zero by construction — the §1 invariant the checker
         asserts. *)
      let rec sleep () =
        let woken =
          List.exists
            (fun (_, m) -> match m with Wake -> true | _ -> false)
            (Proc.receive ())
        in
        if woken then begin
          count_read mon pi ~first:true;
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
    end
  in
  fun p () ->
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
      count_read mon pi ~first:true;
      if Proc.read serving <> t then await pi t;
      Proc.write waiting.(pi) (-1);
      critical_section mon pi ~cs_work;
      (* Handoff: advance SERVING (only the holder writes it), scan the
         waiting array once, hand over to the next ticket holder. *)
      let s' = Proc.read serving + 1 in
      Proc.write serving s';
      let next = ref None in
      for j = 0 to n - 1 do
        if !next = None && Proc.read waiting.(j) = s' then next := Some j
      done;
      match !next with
      | Some j when local_spin -> Proc.write grant.(j) s'
      | Some j -> Proc.send (Id.of_int j) Wake
      | None -> ()
    done

let run ?(seed = 1) ?(max_steps = 5_000_000) ?(cs_work = 4)
    ?(trace_capacity = 0) ?prepare ?sched ?backend ~algo ~n ~entries () =
  let eng =
    Engine.create ~seed ?sched ~trace_capacity ?backend
      ~domain:(Domain_.full n) ~link:Network.Reliable ~n ()
  in
  let store = Engine.store eng in
  let counters () = Array.make n 0 in
  let mon =
    {
      inside = 0;
      violations = 0;
      entered = counters ();
      reads = counters ();
      local_reads = counters ();
      spins = counters ();
    }
  in
  let process =
    match algo with
    | Bakery -> bakery store ~n ~entries ~cs_work mon
    | Local_spin -> ticket store ~local_spin:true ~n ~entries ~cs_work mon
    | Mm -> ticket store ~local_spin:false ~n ~entries ~cs_work mon
  in
  List.iter (fun p -> Engine.spawn eng p (process p)) (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  ignore (Engine.run eng ~max_steps ());
  {
    entries = mon.entered;
    safety_violations = mon.violations;
    wait_reads = mon.reads;
    wait_reads_local = mon.local_reads;
    spin_reads = mon.spins;
    run = Engine.summary eng;
  }
