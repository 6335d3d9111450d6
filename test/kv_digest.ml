(* kv_digest — whole KV outcomes, pinned across changes.

   `dune runtest` runs this and diffs its output against the checked-in
   kv_digest.expected.  One line per case of [Kv_cases.all]: a few
   headline counts, then the MD5 of [Kv_cases.render] of the whole
   outcome (every op record, every apply log, the histogram
   percentiles, the counters and the run record).  A change that moves
   any request's completion, any log entry or any engine count fails
   the build.

   Regenerate only for a change that means to alter behaviour:
     dune build @runtest --auto-promote *)

module Kv = Mm_kv.Kv

let () =
  List.iter
    (fun (c : Kv_cases.case) ->
      let o = c.Kv_cases.run () in
      Printf.printf "%-15s ops=%d completed=%d timeouts=%d dup=%d steps=%d %s\n"
        c.Kv_cases.name (Array.length o.Kv.ops) o.Kv.completed o.Kv.timeouts
        o.Kv.duplicate_applies o.Kv.run.Mm_sim.Engine.steps
        (Digest.to_hex (Digest.string (Kv_cases.render o))))
    Kv_cases.all
