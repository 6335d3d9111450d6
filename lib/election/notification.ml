module Id = Mm_core.Id
module Decimal = Mm_core.Decimal
module Mem = Mm_mem.Mem
module Proc = Mm_sim.Proc

type Mm_net.Message.payload += Notify_msg

type t = {
  notify : Id.t -> unit;
  poll : unit -> Id.t list;
  on_message : Id.t -> Mm_net.Message.payload -> bool;
}

let reliable ~me:_ =
  let pending = ref Id.Set.empty in
  {
    notify = (fun q -> Proc.send q Notify_msg);
    poll =
      (fun () ->
        let notifiers = Id.Set.elements !pending in
        pending := Id.Set.empty;
        notifiers);
    on_message =
      (fun src payload ->
        match payload with
        | Notify_msg ->
          pending := Id.Set.add src !pending;
          true
        | _ -> false);
  }

type lossy_registers = {
  notifications : bool Mem.reg array;      (* NOTIFICATIONS[p], owner p *)
  notifies : bool Mem.reg array array;     (* NOTIFIES[p][q], owner p *)
}

let alloc_lossy groups =
  let n = Array.length groups in
  let notifications =
    Array.mapi
      (fun p g ->
        Mem.alloc_in g ~name:("NOTIFICATIONS[" ^ Decimal.of_int p ^ "]") false)
      groups
  in
  let notifies =
    Array.mapi
      (fun p g ->
        let row = "NOTIFIES[" ^ Decimal.of_int p ^ "][" in
        Array.init n (fun q ->
            Mem.alloc_in g ~name:(row ^ Decimal.of_int q ^ "]") false))
      groups
  in
  { notifications; notifies }

let lossy regs ~me =
  let mi = Id.to_int me in
  {
    notify =
      (fun q ->
        let qi = Id.to_int q in
        Proc.write regs.notifies.(qi).(mi) true;
        Proc.write regs.notifications.(qi) true);
    poll =
      (fun () ->
        if not (Proc.read regs.notifications.(mi)) then []
        else begin
          Proc.write regs.notifications.(mi) false;
          let notifiers = ref [] in
          for q = Array.length regs.notifies.(mi) - 1 downto 0 do
            if q <> mi && Proc.read regs.notifies.(mi).(q) then begin
              Proc.write regs.notifies.(mi).(q) false;
              notifiers := Id.of_int q :: !notifiers
            end
          done;
          !notifiers
        end);
    on_message = (fun _ _ -> false);
  }
