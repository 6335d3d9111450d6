module Id = Mm_core.Id
module Decimal = Mm_core.Decimal
module Int_table = Mm_core.Int_table
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

(* The paper's infinite object arrays RVals[q, k] / PVals[q, k]: one
   round-indexed table per host q, materialized on first touch.  Every
   object for q is shared among q's closed neighborhood and hosted at q,
   so one validated sharing set per host ([host_groups], built on first
   use) serves all of them. *)
let host_groups graph store =
  let groups = Array.make (Graph.order graph) None in
  fun host ->
    match groups.(host) with
    | Some g -> g
    | None ->
      let shared_with =
        List.filter_map
          (fun q -> if q = host then None else Some (Id.of_int q))
          (Graph.closed_neighborhood graph host)
      in
      let g = Mem.group store ~owner:(Id.of_int host) ~shared_with in
      groups.(host) <- Some g;
      g

let round_table ~n ~group prefix make =
  let tables = Array.init n (fun _ -> Int_table.create ()) in
  fun host round ->
    let t = tables.(host) in
    match Int_table.find t round with
    | obj -> obj
    | exception Not_found ->
      let name =
        String.concat ""
          [ prefix; "["; Decimal.of_int host; ","; Decimal.of_int round; "]" ]
      in
      let obj = make (group host) name in
      Int_table.replace t round obj;
      obj

let make_objects impl graph store =
  match impl with
  | Direct ->
    if Graph.size graph <> 0 then
      invalid_arg
        "Hbo: the Direct object implementation is pure Ben-Or and \
         requires an edgeless shared-memory graph";
    { rvals = (fun _ _ v -> v); pvals = (fun _ _ v -> v) }
  | Trusted ->
    let n = Graph.order graph and group = host_groups graph store in
    let reg g name = Mem.alloc_in g ~name None in
    let r = round_table ~n ~group "RVals" reg
    and p = round_table ~n ~group "PVals" reg in
    {
      rvals = (fun host round v -> trusted_propose (r host round) v);
      pvals = (fun host round v -> trusted_propose (p host round) v);
    }
  | Registers ->
    let n = Graph.order graph and group = host_groups graph store in
    let obj g name = Rand_consensus.create_in g ~name in
    let r = round_table ~n ~group "RVals" obj
    and p = round_table ~n ~group "PVals" obj in
    {
      rvals = (fun host round v -> Rand_consensus.propose (r host round) v);
      pvals = (fun host round v -> Rand_consensus.propose (p host round) v);
    }

(* Message buffering: one bucket per (phase, round), recording for each
   represented process id its agreed value — absent, 0, 1 or '?' — and
   how many ids are present and carry 0 or 1, so [await] and
   [majority_value] read counters.  Consensus-object agreement
   guarantees two senders never report different values for the same
   id; the assert checks that invariant on every ingest. *)
type bucket = {
  vals : Bytes.t;  (* per id: absent, or [code] of its value *)
  mutable size : int;
  mutable zeros : int;
  mutable ones : int;
}

let absent = '\000'

let code = function
  | Some 0 -> '0'
  | Some 1 -> '1'
  | None -> '?'
  | Some _ -> invalid_arg "Hbo: non-binary value"

let hbo_process ~n ~nbhd ~objects ~on_decide ~input () =
  let buckets_r = Int_table.create () and buckets_p = Int_table.create () in
  let bucket phase round =
    let t = match phase with R -> buckets_r | P -> buckets_p in
    match Int_table.find t round with
    | b -> b
    | exception Not_found ->
      let b = { vals = Bytes.make n absent; size = 0; zeros = 0; ones = 0 } in
      Int_table.replace t round b;
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
              let c = code v in
              let c' = Bytes.get b.vals q in
              if c' = absent then begin
                Bytes.set b.vals q c;
                b.size <- b.size + 1;
                if c = '0' then b.zeros <- b.zeros + 1
                else if c = '1' then b.ones <- b.ones + 1
              end
              else assert (c = c'))
            tuples
        | _ -> ())
      (Proc.receive ())
  in
  let await phase round =
    let rec go () =
      ingest ();
      let b = bucket phase round in
      if 2 * b.size > n then b
      else begin
        Proc.yield ();
        go ()
      end
    in
    go ()
  in
  let majority_value b =
    if 2 * b.zeros > n then Some 0
    else if 2 * b.ones > n then Some 1
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
    (* Every non-'?' value in a P bucket is the same: each id's value is
       agreed by its PVals object, and a non-'?' proposal needs a
       majority of ids carrying it in phase R, where any two majorities
       share an id. *)
    assert (pb.zeros = 0 || pb.ones = 0);
    let non_question =
      if pb.zeros > 0 then Some 0 else if pb.ones > 0 then Some 1 else None
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
