(** Linearizability checking for a single atomic register whose writes
    carry unique values.

    A history is a set of completed operations, each with a real-time
    interval [\[start_t, finish_t\]].  The history is linearizable when
    there is a total order of the operations that (1) respects real
    time — if op a finished before op b started ([a.finish_t <
    b.start_t]), a precedes b — and (2) obeys register semantics — every
    read returns the value of the latest preceding write (or the initial
    value).

    With unique write values each read's dictating write is known, and
    the checker is the zone test of Gibbons and Korach (SIAM J. Comput.
    1997).  The events are grouped by value: a value's cluster is its
    write plus the reads that returned it; the initial value's write
    finished before everything.  A cluster's zone runs from [lo], its
    minimum finish, to [hi], its maximum start; it is {e forward} when
    [lo < hi] and {e backward} otherwise.  The history is linearizable
    iff every read returns the initial value or a written one, no read
    finishes before its write starts, no two forward zones overlap, and
    no backward zone lies strictly inside a forward one.

    Grouping is a sort and the zone conditions one sweep over the zones
    sorted by left end, so a history of [m] events is checked in
    O(m log m) time and O(m) space, at any length: there is no size
    bound.  Histories recorded by {!Mm_abd.Abd} runs or by hand are
    checked directly; unlike {!Mm_abd.Abd.atomicity_violations} this
    checker sees only invocation/response values and intervals — no
    protocol timestamps — so it validates the history the way an
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
    Raises [Invalid_argument] on an event with [finish_t < start_t], on
    two writes of one value and on a write of [init]: the zone test
    needs every written value unique and distinct from [init]. *)
val check : ?init:int -> event list -> bool

(** Convert a completed ABD history (values and step intervals) into
    checker events. *)
val of_abd_history : Mm_abd.Abd.event list -> event list
