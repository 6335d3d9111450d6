(* A hand-rolled Stdlib.Domain work-queue pool (no domainslib): trials
   are claimed off a shared atomic counter in chunks, and the lowest
   hit is tracked as a frontier so the search result is deterministic
   no matter how trials interleave across domains.

   The claim path is built so that a worker touches shared mutable
   state only at chunk granularity: one fetch-and-add to claim a chunk,
   one frontier read per chunk (cached for the chunk's whole scan), and
   a frontier CAS only on a hit.  The three shared atomics each live on
   a cache line of their own (see [atomic_padded]), so polling the
   frontier never contends with the claim counter. *)

let default_jobs () = max 1 (Stdlib.Domain.recommended_domain_count () - 1)

(* One atomic claim per [chunk] indices.  Small sweeps still want
   fine-grained claims (chunking a 24-trial sweep into 64s would
   serialize it), so the default scales with the work per worker and is
   capped: ~8 claims per worker over the budget, at most 64 per claim. *)
let default_chunk ~jobs ~budget = max 1 (min 64 (budget / (jobs * 8)))

(* [Atomic.make] allocates a one-word heap record, and consecutive
   allocations land on the same cache line — so [next], [frontier] and
   [failure] would false-share: every fetch_and_add on the claim
   counter would invalidate the line every other domain polls the
   frontier through.  [Atomic.t] is a single-field record, so re-housing
   that field in a 16-word (128-byte on 64-bit) block is
   layout-compatible with the atomic primitives, and the padding words
   hold immediate/unit values the GC scans soundly.  OCaml >= 5.2
   spells this [Atomic.make_contended]; this is the 5.1 rendering. *)
let atomic_padded (v : 'a) : 'a Atomic.t =
  let b = Obj.new_block 0 16 in
  for i = 1 to 15 do
    Obj.set_field b i (Obj.repr 0)
  done;
  Obj.set_field b 0 (Obj.repr v);
  Obj.magic b

(* Lock-free minimum: CAS until [v] is no improvement. *)
let rec update_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then update_min a v

type 'ctx stats = {
  found : int option;
  ctxs : 'ctx array;
  claimed : int array;
  evaluated : int array;
}

let find_first_stats ?(jobs = 1) ?chunk ~init ~budget f =
  if jobs < 1 then invalid_arg "Pool.find_first_stats: jobs must be >= 1";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.find_first_stats: chunk must be >= 1"
  | _ -> ());
  if budget <= 0 then
    { found = None; ctxs = [||]; claimed = [||]; evaluated = [||] }
  else begin
    let jobs = min jobs budget in
    let chunk =
      match chunk with
      | Some c -> c
      | None -> default_chunk ~jobs ~budget
    in
    (* Never spawn more domains than there are chunks to claim: with a
       coarse [chunk] relative to [budget] the extra domains would pay
       spawn + minor-GC-barrier cost only to find the counter already
       past the budget. *)
    let jobs = min jobs ((budget + chunk - 1) / chunk) in
    if jobs <= 1 then begin
      let ctx = init 0 in
      let rec go i =
        if i >= budget then
          { found = None; ctxs = [| ctx |]; claimed = [| budget |];
            evaluated = [| budget |] }
        else if f ctx i then
          { found = Some i; ctxs = [| ctx |]; claimed = [| i + 1 |];
            evaluated = [| i + 1 |] }
        else go (i + 1)
      in
      go 0
    end
    else begin
      let next = atomic_padded 0 in
      let frontier = atomic_padded max_int in
      let failure = atomic_padded None in
      let claimed = Array.make jobs 0 in
      let evaluated = Array.make jobs 0 in
      let worker wid =
        let ctx = init wid in
        let my_claimed = ref 0 in
        let my_evaluated = ref 0 in
        let running = ref true in
        while !running do
          let base = Atomic.fetch_and_add next chunk in
          (* Chunks above the frontier cannot beat the current best hit;
             stop claiming.  Every chunk that contains an index at or
             below the final frontier starts at or below it (the
             frontier only decreases), so each such index is still
             evaluated exactly once and the final frontier is the true
             minimum. *)
          if
            base >= budget
            || base > Atomic.get frontier
            || Atomic.get failure <> None
          then running := false
          else begin
            let stop = min budget (base + chunk) in
            my_claimed := !my_claimed + (stop - base);
            (* One frontier read for the whole chunk.  The cached value
               only ever overestimates the live frontier (it was read
               earlier, and the frontier only decreases), so skipping
               [i > fr] skips only indices above the final frontier —
               the determinism argument is unchanged, and the fast path
               stops paying an acquire load per index. *)
            let fr = Atomic.get frontier in
            let i = ref base in
            (try
               while !i < stop do
                 if !i <= fr then begin
                   incr my_evaluated;
                   if f ctx !i then begin
                     update_min frontier !i;
                     (* The rest of this chunk is above the hit, hence
                        above the final frontier: abandon it. *)
                     i := stop
                   end
                 end;
                 incr i
               done
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))))
          end
        done;
        claimed.(wid) <- !my_claimed;
        evaluated.(wid) <- !my_evaluated;
        ctx
      in
      let helpers =
        Array.init (jobs - 1) (fun k ->
            Stdlib.Domain.spawn (fun () -> worker (k + 1)))
      in
      let ctx0 = worker 0 in
      let ctxs = Array.append [| ctx0 |] (Array.map Stdlib.Domain.join helpers) in
      (match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      let found =
        match Atomic.get frontier with
        | i when i = max_int -> None
        | i -> Some i
      in
      { found; ctxs; claimed; evaluated }
    end
  end
