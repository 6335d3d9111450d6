(** Wing–Gong linearizability checking for a single atomic register.

    A history is a set of completed operations, each with a real-time
    interval [\[start_t, finish_t\]].  The history is linearizable when
    there is a total order of the operations that (1) respects real
    time — if op a finished before op b started, a precedes b — and
    (2) obeys register semantics — every read returns the value of the
    latest preceding write (or the initial value).

    The checker is the classic Wing–Gong search: repeatedly pick a
    *minimal* operation (one no other pending operation strictly
    precedes in real time), apply it to the register state, and recurse,
    memoizing on (remaining-set, register value).  The memo prunes
    repeated states but does not bound the search: it is exponential in
    the worst case, and a 45-op history on 2 keys of a kv trial runs
    past 20 s.  Histories recorded by {!Mm_abd.Abd} runs or
    by hand are checked directly; unlike {!Mm_abd.Abd.atomicity_violations}
    this checker sees only invocation/response values and intervals —
    no protocol timestamps — so it validates the history the way an
    external client would. *)

type op =
  | Read of int   (** a read that returned this value *)
  | Write of int  (** a write of this value *)

type event = {
  proc : int;
  op : op;
  start_t : int;   (** invocation time *)
  finish_t : int;  (** response time; must be >= [start_t] *)
}

(** [check ?init events] decides linearizability of the completed
    history with initial register value [init] (default 0).
    Raises [Invalid_argument] on more than 62 events (the search is
    bitmask-indexed) or on an event with [finish_t < start_t]. *)
val check : ?init:int -> event list -> bool

(** Convert a completed ABD history (values and step intervals) into
    checker events. *)
val of_abd_history : Mm_abd.Abd.event list -> event list
