(** Message-passing heartbeat Ω — the baseline the m&m algorithms beat.

    The textbook construction: every process periodically sends heartbeat
    messages to all; each process trusts the smallest id it has heard
    from recently and elects it.  Correctness needs *timely links*: if
    message delays exceed the receivers' timeouts, leadership flaps
    forever (even with a perfectly timely leader process) — exactly the
    synchrony requirement §5 shows the m&m model removes.  The [adaptive]
    flag enables doubling timeouts (stabilizes under bounded delays, but
    never under delays that keep growing — see experiment E8).

    Also unlike the m&m algorithms, the steady state is never silent:
    heartbeats flow forever.

    The outcome is {!Omega.outcome}, judged by the same {!Omega.holds};
    it touches no register, so its [window_mem] is all zero. *)

val run :
  ?seed:int ->
  ?hb_period:int ->
  ?timeout:int ->
  ?adaptive:bool ->
  ?timely:(int * int) list ->
  ?crashes:(int * int) list ->
  ?warmup:int ->
  ?window:int ->
  ?delay:Mm_net.Network.delay ->
  n:int ->
  unit ->
  Omega.outcome
