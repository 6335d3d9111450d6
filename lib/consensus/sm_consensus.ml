module Id = Mm_core.Id
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Engine = Mm_sim.Engine

type outcome = {
  decisions : int option array;
  run : Engine.summary;
}

let run ?(seed = 1) ?(max_steps = 2_000_000) ?(crashes = []) ?sched ~n
    ~inputs () =
  if Array.length inputs <> n then invalid_arg "Sm_consensus.run: |inputs| <> n";
  let eng =
    Engine.create ~seed ?sched ~domain:(Domain_.full n)
      ~link:Network.Reliable ~n ()
  in
  let store = Engine.store eng in
  let obj =
    Rand_consensus.create store ~name:"global" ~owner:(Id.of_int 0)
      ~participants:(Id.all n)
  in
  let decisions = Array.make n None in
  let crashed = Engine.crash_plan eng crashes in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      Engine.spawn eng p (fun () ->
          let v = Rand_consensus.propose obj inputs.(pi) in
          decisions.(pi) <- Some v))
    (Id.all n);
  let all_decided () = Decisions.all_correct_decided ~crashed decisions in
  ignore (Engine.run eng ~max_steps ~until:all_decided ());
  { decisions; run = Engine.summary eng }
