(** The notification mechanisms of the leader-election algorithm.

    Figure 3's core is parameterized by how a process announces its
    leadership bid.  The paper gives two mechanisms:

    - Figure 4 (reliable links): [notify q] simply sends a message;
      [poll] returns the senders of notification messages received since
      the last poll.  Costs nothing in shared memory but a lost message
      would lose the notification — hence reliable links only.
    - Figure 5 (fair-lossy links): [notify q] sets NOTIFIES[q][p] and
      then the summary bit NOTIFICATIONS[q] in shared memory; [poll]
      checks the summary bit (one read in the common case) and only
      scans the row when it is set.  Registers cannot be lost, so this
      works under fair-lossy links — at the price of the leader reading
      a register forever (exactly the Theorem 5.4 lower bound).

    A mechanism value is per-process: [create_*] is called with the
    process's id at spawn time, and its functions must run in that
    process's context. *)

type t = {
  notify : Mm_core.Id.t -> unit;
      (** announce a leadership bid to one process *)
  poll : unit -> Mm_core.Id.t list;
      (** Get_Notifications: who has bid since the last poll *)
  on_message : Mm_core.Id.t -> Mm_net.Message.payload -> bool;
      (** offer an incoming message; [true] if it was a notification and
          has been consumed by the mechanism *)
}

(** The Figure 4 message-based mechanism for process [me]. *)
val reliable : me:Mm_core.Id.t -> t

(** Shared registers of the Figure 5 mechanism (one set per system). *)
type lossy_registers

(** [alloc_lossy groups] allocates NOTIFICATIONS[p] and NOTIFIES[p][q]
    for all p, q from [groups], the {!Mm_mem.Mem.peer_groups} of all n
    processes (§5 assumes complete G_SM): every register of row p comes
    from group p, so the n² registers cost one validation. *)
val alloc_lossy : Mm_mem.Mem.group array -> lossy_registers

(** The Figure 5 register-based mechanism for process [me]. *)
val lossy : lossy_registers -> me:Mm_core.Id.t -> t
