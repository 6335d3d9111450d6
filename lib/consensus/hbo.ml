module Id = Mm_core.Id
module Domain_ = Mm_core.Domain
module Graph = Mm_graph.Graph
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc

type impl =
  | Registers
  | Trusted
  | Direct

type phase =
  | R
  | P

(* Tuples carry (process id, agreed value); in phase R the value is
   always [Some v], in phase P [None] encodes the '?' of Figure 2. *)
type Mm_net.Message.payload +=
  | Hbo_msg of {
      phase : phase;
      round : int;
      tuples : (int * int option) list;
    }

type outcome = {
  decisions : int option array;
  decide_step : int option array;
  decide_round : int option array;
  registers : int;
  run : Engine.summary;
}

(* A consensus-object factory: [propose host round v] runs the object
   RVals[host, round] (or PVals) for the calling process. *)
type objects = {
  rvals : int -> int -> int -> int;
  pvals : int -> int -> int option -> int option;
}

let trusted_propose reg v =
  let me = Proc.self () in
  Proc.atomic (fun () ->
      match Mem.read reg ~by:me with
      | Some w -> w
      | None ->
        Mem.write reg ~by:me (Some v);
        v)

let make_objects impl graph store =
  match impl with
  | Direct ->
    if Graph.size graph <> 0 then
      invalid_arg
        "Hbo: the Direct object implementation is pure Ben-Or and \
         requires an edgeless shared-memory graph";
    { rvals = (fun _ _ v -> v); pvals = (fun _ _ v -> v) }
  | Trusted ->
    let tbl_r : (int * int, int -> int) Hashtbl.t = Hashtbl.create 64 in
    let tbl_p : (int * int, int option -> int option) Hashtbl.t =
      Hashtbl.create 64
    in
    let neighborhood host =
      List.map Id.of_int (Graph.closed_neighborhood graph host)
    in
    let get tbl prefix host round =
      match Hashtbl.find_opt tbl (host, round) with
      | Some f -> f
      | None ->
        let owner = Id.of_int host in
        let shared =
          List.filter (fun p -> not (Id.equal p owner)) (neighborhood host)
        in
        let reg =
          Mem.alloc store
            ~name:(Printf.sprintf "%s[%d,%d]" prefix host round)
            ~owner ~shared_with:shared None
        in
        let f v = trusted_propose reg v in
        Hashtbl.add tbl (host, round) f;
        f
    in
    {
      rvals = (fun host round v -> (get tbl_r "RVals" host round) v);
      pvals = (fun host round v -> (get tbl_p "PVals" host round) v);
    }
  | Registers ->
    let tbl_r : (int * int, int Rand_consensus.t) Hashtbl.t =
      Hashtbl.create 64
    in
    let tbl_p : (int * int, int option Rand_consensus.t) Hashtbl.t =
      Hashtbl.create 64
    in
    let make prefix host round =
      let owner = Id.of_int host in
      let participants =
        List.map Id.of_int (Graph.closed_neighborhood graph host)
      in
      Rand_consensus.create store
        ~name:(Printf.sprintf "%s[%d,%d]" prefix host round)
        ~owner ~participants
    in
    let get tbl prefix host round =
      match Hashtbl.find_opt tbl (host, round) with
      | Some obj -> obj
      | None ->
        let obj = make prefix host round in
        Hashtbl.add tbl (host, round) obj;
        obj
    in
    {
      rvals =
        (fun host round v ->
          Rand_consensus.propose (get tbl_r "RVals" host round) v);
      pvals =
        (fun host round v ->
          Rand_consensus.propose (get tbl_p "PVals" host round) v);
    }

(* Message buffering: one bucket per (phase, round), mapping represented
   process id -> agreed value.  Consensus-object agreement guarantees two
   senders never report different values for the same id; the assert
   checks that invariant on every ingest. *)
let hbo_process ~n ~nbhd ~objects ~on_decide ~input () =
  let buckets : (int * int, (int, int option) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 32
  in
  let phase_key = function R -> 0 | P -> 1 in
  let bucket phase round =
    let key = (phase_key phase, round) in
    match Hashtbl.find_opt buckets key with
    | Some b -> b
    | None ->
      let b = Hashtbl.create (2 * n) in
      Hashtbl.add buckets key b;
      b
  in
  let ingest () =
    List.iter
      (fun (_src, payload) ->
        match payload with
        | Hbo_msg { phase; round; tuples } ->
          let b = bucket phase round in
          List.iter
            (fun (q, v) ->
              match Hashtbl.find_opt b q with
              | None -> Hashtbl.add b q v
              | Some v' -> assert (v = v'))
            tuples
        | _ -> ())
      (Proc.receive ())
  in
  let await phase round =
    let rec go () =
      ingest ();
      let b = bucket phase round in
      if 2 * Hashtbl.length b > n then b
      else begin
        Proc.yield ();
        go ()
      end
    in
    go ()
  in
  (* Count ids in the bucket carrying value [v]. *)
  let count_value b v =
    Hashtbl.fold (fun _ w acc -> if w = v then acc + 1 else acc) b 0
  in
  let majority_value b =
    if 2 * count_value b (Some 0) > n then Some 0
    else if 2 * count_value b (Some 1) > n then Some 1
    else None
  in
  let propose_r round v =
    List.map (fun q -> (q, Some (objects.rvals q round v))) nbhd
  in
  let propose_p round v =
    List.map (fun q -> (q, objects.pvals q round v)) nbhd
  in
  let decided = ref false in
  let rec loop round r_tuples =
    Proc.send_all ~n (Hbo_msg { phase = R; round; tuples = r_tuples });
    let rb = await R round in
    let p_tuples = propose_p round (majority_value rb) in
    Proc.send_all ~n (Hbo_msg { phase = P; round; tuples = p_tuples });
    let pb = await P round in
    (match majority_value pb with
    | Some v when not !decided ->
      decided := true;
      on_decide ~round v
    | Some _ | None -> ());
    let non_question =
      Hashtbl.fold
        (fun _ w acc -> match (acc, w) with None, Some v -> Some v | _ -> acc)
        pb None
    in
    let next = round + 1 in
    let r_tuples' =
      match non_question with
      | Some v -> propose_r next v
      | None ->
        List.map
          (fun q ->
            let v = if Proc.coin () then 1 else 0 in
            (q, Some (objects.rvals q next v)))
          nbhd
    in
    loop next r_tuples'
  in
  loop 1 (propose_r 1 input)

let run ?(seed = 1) ?(impl = Registers) ?(max_steps = 2_000_000)
    ?(trace_capacity = 0) ?(crashes = []) ?partition ?prepare ?sched
    ?backend ?(link = Network.Reliable) ?delay ~graph ~inputs () =
  let n = Graph.order graph in
  if Array.length inputs <> n then invalid_arg "Hbo.run: |inputs| <> n";
  Array.iter
    (fun v -> if v <> 0 && v <> 1 then invalid_arg "Hbo.run: binary inputs only")
    inputs;
  let domain = Domain_.uniform_of_graph graph in
  let eng =
    Engine.create ~seed ?sched ?delay ~trace_capacity ?backend
      ~domain ~link ~n ()
  in
  (match partition with
  | None -> ()
  | Some (side_a, side_b) ->
    Network.partition (Engine.network eng)
      [ List.map Id.of_int side_a; List.map Id.of_int side_b ]);
  let store = Engine.store eng in
  let objects = make_objects impl graph store in
  let decisions = Array.make n None in
  let decide_step = Array.make n None in
  let decide_round = Array.make n None in
  let crashed = Engine.crash_plan eng crashes in
  (* Termination is checked between every engine step, so it must be
     O(1): count the processes whose decision the run waits for (those
     never scheduled to crash) and decrement as each decides.  A process
     decides at most once (guarded in [hbo_process]). *)
  let undecided =
    ref (Array.fold_left (fun a c -> if c then a else a + 1) 0 crashed)
  in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      let nbhd = Graph.closed_neighborhood graph pi in
      let on_decide ~round v =
        decisions.(pi) <- Some v;
        decide_step.(pi) <- Some (Engine.now eng);
        decide_round.(pi) <- Some round;
        if not crashed.(pi) then decr undecided
      in
      Engine.spawn eng p
        (hbo_process ~n ~nbhd ~objects ~on_decide ~input:inputs.(pi)))
    (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  let all_decided () = !undecided = 0 in
  ignore (Engine.run eng ~max_steps ~until:all_decided ());
  {
    decisions;
    decide_step;
    decide_round;
    registers = Mem.reg_count store;
    run = Engine.summary eng;
  }

let max_round o =
  Array.fold_left
    (fun acc r -> match r with Some k -> max acc k | None -> acc)
    0 o.decide_round
