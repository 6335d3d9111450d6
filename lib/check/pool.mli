(** A minimal OCaml 5 domain pool for embarrassingly parallel sweeps.

    Built directly on [Stdlib.Domain] + [Atomic] (no external
    dependencies): worker domains claim trial indices from a shared
    counter — a {e chunk} of consecutive indices per atomic claim, so a
    large sweep costs one fetch-and-add per chunk instead of one per
    trial — and race to lower a "frontier", the lowest index whose
    predicate held.  Workers stop claiming chunks above the frontier and
    skip individual indices above it, yet every index at or below the
    final frontier is evaluated exactly once (the frontier only
    decreases, so a chunk containing such an index is never skipped).
    The result is therefore a pure function of [f] and [budget],
    independent of [jobs], [chunk] and scheduling: the determinism rule
    is {e lowest index wins}, not first-to-complete.

    The claim path touches shared mutable state only at chunk
    granularity: one fetch-and-add per chunk, one frontier read per
    chunk (cached for the chunk's scan — sound, because a stale
    frontier only {e over}-estimates the live one), a CAS only on a
    hit.  The shared atomics are padded onto cache lines of their own,
    so claim traffic never false-shares with frontier polling. *)

(** [Domain.recommended_domain_count () - 1] (leaving one core for the
    coordinating domain), at least 1. *)
val default_jobs : unit -> int

(** Per-worker accounting of one {!find_first_stats} run.  Worker 0 is
    the calling domain; [ctxs], [claimed] and [evaluated] are indexed by
    worker and all have the same length — the number of domains that
    actually ran, which can be lower than the requested [jobs] (capped
    at the chunk count, so no domain is spawned with nothing to claim).
    [claimed.(w)] counts indices worker [w] claimed off the shared
    counter; [evaluated.(w)] counts its actual [f] calls (claimed minus
    frontier-skipped).  Unlike [found], these counts depend on
    cross-domain timing — they are diagnostics, not part of the
    deterministic result. *)
type 'ctx stats = {
  found : int option;
  ctxs : 'ctx array;
  claimed : int array;
  evaluated : int array;
}

(** [find_first_stats ~init ~budget f] searches for the smallest [i]
    in [0, budget) with [f ctx i = true] ([found], or [None]).  Every
    worker domain (including the calling one) runs [init wid] once and
    passes the result [ctx] to each of its [f] calls; [init] and [f]
    must be safe to call from multiple domains concurrently (in this
    codebase: any function of a trial seed that builds its own engine).
    [jobs] (default 1) is the total number of domains used, including
    the calling one; it is capped at [budget] and at the number of
    chunks.  [chunk] (default: adaptive, roughly [budget / (jobs * 8)]
    capped at 64) is the number of consecutive indices claimed per
    atomic operation.  If some call to [f] raises, the first exception
    observed is re-raised on the calling domain after all workers have
    drained.

    The per-worker contexts and claim/evaluation counts come back after
    the join: this is how the sweep engine gets each domain's private
    dedup table back for merging, and how [--report-domains] localizes
    a scaling regression to a domain.  Reading them needs no
    synchronization.

    @raise Invalid_argument if [jobs < 1] or [chunk < 1]. *)
val find_first_stats :
  ?jobs:int ->
  ?chunk:int ->
  init:(int -> 'ctx) ->
  budget:int ->
  ('ctx -> int -> bool) ->
  'ctx stats
