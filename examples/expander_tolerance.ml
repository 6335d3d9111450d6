(* Fault tolerance as a function of the shared-memory graph.

   The core trade-off of the paper's §4: hardware limits how many
   processes can share memory (the degree of G_SM), and the *expansion*
   of the graph you build under that budget decides how many crashes
   consensus survives.  This example sweeps graph families at n = 16,
   prints the Theorem 4.3 prediction next to the exact analysis, and
   then actually runs HBO at the edge to show the thresholds are real.

   Run with:  dune exec examples/expander_tolerance.exe *)

module B = Mm_graph.Builders
module G = Mm_graph.Graph
module E = Mm_graph.Expansion
module Hbo = Mm_consensus.Hbo
module Decisions = Mm_consensus.Decisions

let check_at_f graph f =
  if f < 0 then true
  else begin
    let crashed, _ = E.worst_crash_set graph ~f in
    let crashes = List.map (fun p -> (p, 0)) crashed in
    let n = G.order graph in
    let inputs = Array.init n (fun i -> i mod 2) in
    let o =
      Hbo.run ~seed:11 ~impl:Hbo.Trusted ~max_steps:400_000 ~graph ~crashes
        ~inputs ()
    in
    Decisions.all_correct_decided ~crashed:o.Hbo.run.crashed o.Hbo.decisions
    && Decisions.agreement o.Hbo.decisions
  end

let () =
  let rng = Mm_rng.Rng.create 2718 in
  let n = 16 in
  let families =
    [
      ("edgeless (pure MP)     ", B.edgeless n);
      ("ring                   ", B.ring n);
      ("torus 4x4              ", B.torus ~rows:4 ~cols:4);
      ("hypercube d=4          ", B.hypercube 4);
      ("random 4-regular       ", B.random_regular rng ~n ~d:4);
      ("random 6-regular       ", B.random_regular rng ~n ~d:6);
      ("complete (pure SM)     ", B.complete n);
    ]
  in
  Printf.printf
    "%-24s %4s %7s %10s %8s %12s %12s\n" "G_SM (n=16)" "deg" "h(G)"
    "Thm4.3 f*" "true f" "HBO @ true f" "HBO @ f+1";
  List.iter
    (fun (name, g) ->
      let h = E.vertex_expansion_exact g in
      let f_star = E.ft_bound ~h ~n in
      let f_true = E.max_guaranteed_f g in
      let at_true = check_at_f g f_true in
      let beyond =
        if f_true + 1 > n - 1 then "(n-1 cap)"
        else if check_at_f g (f_true + 1) then "decides?!"
        else "blocked"
      in
      Printf.printf "%-24s %4d %7.3f %10d %8d %12s %12s\n" name
        (G.max_degree g) h f_star f_true
        (if at_true then "decides" else "BLOCKED?!")
        beyond)
    families;
  Printf.printf
    "\nReading the table: degree-4 graphs already push tolerance well \n\
     past Ben-Or's 7-of-16 majority bound, and at a fixed degree the \n\
     tolerance tracks the expansion h(G) — Theorem 4.3's prediction, \n\
     measured.  'HBO @ f+1 blocked' shows the thresholds are tight \n\
     against the worst-case crash set.\n"
