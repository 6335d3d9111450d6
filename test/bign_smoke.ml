(* bign_smoke — `dune build @bign-smoke`: the big-n frontier end-to-end.

   Two gates:
   1. Dense vs sparse differential — every registered scenario swept on
      every memory backend with the network's dense and then sparse
      link index, structurally identical reports required; once plain
      and once with nemesis fault timelines, whose partitions park held
      links under both indexes.  The sparse index is the default above
      64 processes, so this is the observational-equivalence contract
      that lets small-n seeds keep replaying bit-for-bit.
   2. A clean n=256 ring HBO sweep — the O(active) engine at a size the
      dense n² layout priced out of CI, completing with no violation
      inside the budgeted-convergence envelope. *)

module B = Mm_graph.Builders
module Net = Mm_net.Network
module Mem = Mm_mem.Mem
module Scenario = Mm_check.Scenario
module Registry = Mm_check.Registry
module Runner = Mm_check.Runner

let params backend ~nemesis =
  {
    Scenario.default_params with
    graph = Some (B.complete 4);
    n = 4;
    backend;
    max_steps = Some 150_000;
    crash_window = Some 5_000;
    warmup = Some 40_000;
    window = Some 8_000;
    nemesis;
  }

let sweep_with idx sc ~params =
  Net.set_default_index (Some idx);
  Fun.protect
    ~finally:(fun () -> Net.set_default_index None)
    (fun () -> Runner.sweep sc ~master_seed:3 ~budget:2 ~params ())

let () =
  let failed = ref false in
  List.iter
    (fun ((bname, backend), nemesis) ->
      let bname = if nemesis then bname ^ "+nemesis" else bname in
      let params = params backend ~nemesis in
      List.iter
        (fun ((module S : Scenario.S) as sc) ->
          let dense = sweep_with `Dense sc ~params in
          let sparse = sweep_with `Sparse sc ~params in
          if dense <> sparse then begin
            Format.printf "FAIL: %s/%s dense and sparse reports differ@."
              S.name bname;
            failed := true
          end;
          if dense.Runner.violation <> None then begin
            Format.printf "[%s] %a" bname Runner.pp_report dense;
            failed := true
          end)
        Registry.all;
      Format.printf "[%s] dense = sparse across %d scenario(s)@." bname
        (List.length Registry.all))
    (List.concat_map
       (fun nemesis -> List.map (fun b -> (b, nemesis)) Mem.Backend.all)
       [ false; true ]);
  let big =
    Runner.sweep
      (module Mm_check.Scenario_hbo)
      ~master_seed:11 ~budget:2
      ~params:{ Scenario.default_params with graph = Some (B.ring 256) }
      ()
  in
  Format.printf "[n=256 ring] %a" Runner.pp_report big;
  if big.Runner.violation <> None then failed := true;
  if !failed then exit 1
