(* registry_smoke — a 1-trial sweep of every registered scenario through
   the generic engine.  Harness validation, not a hunt: the budget is the
   bare minimum that exercises gen/execute/monitors/report end-to-end,
   so adding a scenario to Registry.all (or a backend to
   Mem.Backend.all) is enough to put it under the aliases that run this.
   The real hunts live in test_check and `mm check`.

   Usage: registry_smoke.exe [--nemesis] [BACKEND...]

   With no BACKEND, sweeps the native backend and prints each report as
   is (`@check-smoke`, and `@nemesis-smoke` with --nemesis).  Otherwise
   sweeps each named backend in turn (`all` for every one) and tags each
   report with it (`@backend-smoke`).  --nemesis draws a staged fault
   timeline per trial, exercising Nemesis.gen/install and the
   graceful-degradation monitors.  After the registered scenarios, hbo
   is swept once more with register-built consensus objects
   ([impl = Registers]: Rand_consensus over Adopt_commit), which the
   default trusted objects leave unexercised; its report line is tagged
   [impl=registers].  Exits 1 if any sweep finds a violation. *)

module B = Mm_graph.Builders
module Hbo = Mm_consensus.Hbo
module Backend = Mm_mem.Mem.Backend
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

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let nemesis = List.mem "--nemesis" args in
  let backend name =
    match List.assoc_opt name Backend.all with
    | Some b -> [ (name, b) ]
    | None when name = "all" -> Backend.all
    | None -> failwith ("registry_smoke: unknown backend " ^ name)
  in
  let tagged, backends =
    match List.filter (fun a -> a <> "--nemesis") args with
    | [] -> (false, [ ("native", Backend.Native) ])
    | names -> (true, List.concat_map backend names)
  in
  let failed = ref false in
  List.iter
    (fun (bname, backend) ->
      let params = params backend ~nemesis in
      let hbo =
        match Registry.find "hbo" with
        | Some sc -> sc
        | None -> failwith "registry_smoke: no hbo scenario"
      in
      List.iter
        (fun (sc, tag, params) ->
          let r = Runner.sweep sc ~master_seed:1 ~budget:1 ~params () in
          if tagged then Format.printf "[%s] " bname;
          Format.printf "%s%a" tag Runner.pp_report r;
          if r.Runner.violation <> None then failed := true)
        (List.map (fun sc -> (sc, "", params)) Registry.all
        @ [ (hbo, "[impl=registers] ", { params with impl = Hbo.Registers }) ]))
    backends;
  if !failed then exit 1
