(** Bounded execution traces, for tests and debugging.

    The engine optionally records one event per step into a ring buffer;
    when the buffer fills, the oldest events are dropped. *)

type op =
  | Yielded
  | Sent of Mm_core.Id.t
  | Received of int  (** number of messages drained *)
  | Read of string   (** register name *)
  | Wrote of string
  | Coined of bool
  | Atomic_op
  | Blocked of string  (** emulated register op waiting for a quorum *)
  | Crashed
  | Restarted  (** crashed process re-entered through its recovery closure *)
  | Finished
  | Dropped                     (** the link dropped a message this process sent *)
  | Delivered of Mm_core.Id.t   (** a message from that sender reached this mailbox *)

type event = {
  step : int;          (** global step number *)
  pid : Mm_core.Id.t;
  op : op;
}

type t

(** [create capacity] makes an empty trace keeping the last [capacity]
    events ([capacity >= 1]). *)
val create : int -> t

val record : t -> event -> unit

(** Events in chronological order (oldest first). *)
val to_list : t -> event list

(** Total number of events ever recorded (including dropped ones). *)
val recorded : t -> int

val pp_event : Format.formatter -> event -> unit
