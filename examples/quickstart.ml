(* Quickstart: the m&m model in five minutes.

   We build a 9-process system whose shared-memory graph is a ring of
   three 3-cliques (think: three racks, memory shared within a rack,
   neighboring racks bridged), crash three processes — including one
   whole rack except a single survivor — and run HBO consensus.

   Run with:  dune exec examples/quickstart.exe *)

module B = Mm_graph.Builders
module G = Mm_graph.Graph
module E = Mm_graph.Expansion
module Hbo = Mm_consensus.Hbo
module Decisions = Mm_consensus.Decisions
module Net = Mm_net.Network
module Mem = Mm_mem.Mem

let () =
  let graph = B.ring_of_cliques ~cliques:3 ~k:3 in
  let n = G.order graph in
  Printf.printf "shared-memory graph: ring of 3 cliques, n = %d, degree <= %d\n"
    n (G.max_degree graph);

  (* What does the theory promise?  h(G) gives the Thm 4.3 bound, and the
     exact representation analysis gives the true tolerance. *)
  let h = E.vertex_expansion_exact graph in
  Printf.printf "vertex expansion h(G) = %.3f\n" h;
  Printf.printf "Theorem 4.3 bound:  f* = %d crashes of %d\n"
    (E.ft_bound ~h ~n) n;
  Printf.printf "exact analysis:     f  = %d crashes of %d\n\n"
    (E.max_guaranteed_f graph) n;

  (* Crash 4 of 9 — just under half the system in one corner. *)
  let crashes = [ (0, 0); (1, 0); (2, 0); (3, 0) ] in
  Printf.printf "crashing processes 0, 1, 2, 3 before the run starts...\n";
  Printf.printf "(Ben-Or alone would need a correct majority: 4 >= 9/2? no \
                 — but representation saves the day:\n";
  let represented = E.represented graph ~crashed:(List.map fst crashes) in
  Printf.printf " correct {4..8} plus their boundary = %d represented of %d)\n\n"
    (List.length represented) n;

  let inputs = [| 1; 1; 1; 1; 0; 1; 0; 1; 0 |] in
  let o = Hbo.run ~seed:42 ~impl:Hbo.Registers ~graph ~crashes ~inputs () in

  Array.iteri
    (fun i d ->
      Printf.printf "  p%d%s -> %s\n" i
        (if o.Hbo.run.crashed.(i) then " (crashed)" else "          ")
        (match d with
        | Some v -> Printf.sprintf "decided %d in round %d" v
                      (Option.value ~default:0 o.Hbo.decide_round.(i))
        | None -> "undecided"))
    o.Hbo.decisions;

  Printf.printf "\nuniform agreement: %b   validity: %b   termination: %b\n"
    (Decisions.agreement o.Hbo.decisions)
    (Decisions.validity ~inputs o.Hbo.decisions)
    (Decisions.all_correct_decided ~crashed:o.Hbo.run.crashed o.Hbo.decisions);
  Printf.printf "cost: %d steps, %d messages, %d registers, %d register ops\n"
    o.Hbo.run.steps o.Hbo.run.net.Net.sent o.Hbo.registers
    (Mem.total_ops o.Hbo.run.mem)
