module Id = Mm_core.Id
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc

(* Timestamps are Lamport pairs (counter, writer id): unique across
   concurrent writers, totally ordered lexicographically. *)
type ts = int * int

type Mm_net.Message.payload +=
  | Write_req of { uid : int; ts : ts; v : int }
  | Write_ack of { uid : int }
  | Read_q of { uid : int }
  | Read_r of { uid : int; ts : ts; v : int }

type event = {
  proc : int;
  kind : [ `Write of int | `Read of int ];
  ts : ts;
  start_step : int;
  end_step : int;
}

type outcome = {
  history : event list;
  pending : int;
  run : Engine.summary;
}

type op =
  [ `Write of int
  | `Read
  | `Pause of int
  ]

(* One process: replica state + scripted client operations.  The serve
   loop answers replica traffic while the current client operation waits
   for its quorum. *)
let ts_zero = (0, 0)

let abd_process ~n ~record ~mark_done me script () =
  let mi = Id.to_int me in
  let replica_ts = ref ts_zero in
  let replica_v = ref 0 in
  (* Quorum accumulators for the operation in flight. *)
  let acks : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let reads : (int, int * (ts * int)) Hashtbl.t = Hashtbl.create 8 in
  let handle (src, payload) =
    match payload with
    | Write_req { uid; ts; v } ->
      if ts > !replica_ts then begin
        replica_ts := ts;
        replica_v := v
      end;
      Proc.send src (Write_ack { uid })
    | Read_q { uid } -> Proc.send src (Read_r { uid; ts = !replica_ts; v = !replica_v })
    | Write_ack { uid } ->
      let c = Option.value ~default:0 (Hashtbl.find_opt acks uid) in
      Hashtbl.replace acks uid (c + 1)
    | Read_r { uid; ts; v } ->
      let c, (bts, bv) =
        Option.value ~default:(0, ((-1, -1), 0)) (Hashtbl.find_opt reads uid)
      in
      let best = if ts > bts then (ts, v) else (bts, bv) in
      Hashtbl.replace reads uid (c + 1, best)
    | _ -> ()
  in
  let rec serve_until cond =
    if not (cond ()) then begin
      List.iter handle (Proc.receive ());
      if cond () then ()
      else begin
        Proc.yield ();
        serve_until cond
      end
    end
  in
  let majority uid tbl count_of =
    serve_until (fun () ->
        match Hashtbl.find_opt tbl uid with
        | Some entry -> 2 * count_of entry > n
        | None -> false)
  in
  let next_uid = ref 0 in
  let fresh_uid () =
    incr next_uid;
    (mi * 1_000_000) + !next_uid
  in
  let write_quorum ts v =
    let uid = fresh_uid () in
    Proc.send_all ~n (Write_req { uid; ts; v });
    majority uid acks (fun c -> c);
    uid
  in
  (* MWMR write: query a majority for the max timestamp, then install
     (max+1, my id) — the Lamport pair makes concurrent writers'
     timestamps unique and totally ordered. *)
  let run_op op =
    match op with
    | `Pause k ->
      let target = Proc.my_steps () + k in
      serve_until (fun () -> Proc.my_steps () >= target)
    | `Write v ->
      let start = record `Start in
      let uid = fresh_uid () in
      Proc.send_all ~n (Read_q { uid });
      majority uid reads (fun (c, _) -> c);
      let _, ((max_c, _), _) = Hashtbl.find reads uid in
      let ts = (max_c + 1, mi) in
      ignore (write_quorum ts v);
      ignore (record (`End { proc = mi; kind = `Write v; ts; start_step = start; end_step = 0 }))
    | `Read ->
      let start = record `Start in
      let uid = fresh_uid () in
      Proc.send_all ~n (Read_q { uid });
      majority uid reads (fun (c, _) -> c);
      let _, (ts, v) = Hashtbl.find reads uid in
      (* write-back phase: makes concurrent reads linearizable *)
      ignore (write_quorum ts v);
      ignore (record (`End { proc = mi; kind = `Read v; ts; start_step = start; end_step = 0 }))
  in
  List.iter run_op script;
  mark_done ();
  (* Keep serving the protocol for everybody else. *)
  serve_until (fun () -> false)

let run ?(seed = 1) ?(max_steps = 400_000) ?(trace_capacity = 0)
    ?(crashes = []) ?prepare ?delay ?backend ~n ~scripts () =
  if Array.length scripts <> n then invalid_arg "Abd.run: |scripts| <> n";
  (* ABD allocates no registers — the backend only parameterises the
     store, so the protocol behaves identically under both; threading it
     keeps the Scenario × backend matrix uniform. *)
  let eng =
    Engine.create ~seed ?delay ~trace_capacity ?backend
      ~domain:(Domain_.isolated n) ~link:Network.Reliable ~n ()
  in
  let crashed = Engine.crash_plan eng crashes in
  let history = ref [] in
  let started = ref 0 in
  let completed = ref 0 in
  let script_done = Array.make n false in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      let record = function
        | `Start ->
          incr started;
          Engine.now eng
        | `End ev ->
          incr completed;
          history := { ev with end_step = Engine.now eng } :: !history;
          0
      in
      let mark_done () = script_done.(pi) <- true in
      Engine.spawn eng p (abd_process ~n ~record ~mark_done p scripts.(pi)))
    (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  let all_done () =
    let ok = ref true in
    for i = 0 to n - 1 do
      if (not crashed.(i)) && not script_done.(i) then ok := false
    done;
    !ok
  in
  ignore (Engine.run eng ~max_steps ~until:all_done ());
  {
    history = List.rev !history;
    pending = !started - !completed;
    run = Engine.summary eng;
  }

let atomicity_violations o =
  let events = Array.of_list o.history in
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let pp_ts (c, w) = Printf.sprintf "(%d,%d)" c w in
  (* Rule 1: a read's (ts, value) matches the write with that timestamp
     (ts (0,0) is the initial value 0). *)
  Array.iter
    (fun e ->
      match e.kind with
      | `Read v ->
        if e.ts = (0, 0) then begin
          if v <> 0 then add "read of initial state returned %d" v
        end
        else
          Array.iter
            (fun w ->
              match w.kind with
              | `Write wv when w.ts = e.ts && wv <> v ->
                add "read returned %d for ts %s but the write stored %d" v
                  (pp_ts e.ts) wv
              | _ -> ())
            events
      | `Write _ -> ())
    events;
  (* Rule 2: real-time order never regresses timestamps; a read after a
     completed write must see at least that write's timestamp. *)
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a.end_step < b.start_step && b.ts < a.ts then
            add
              "op at step %d (ts %s) precedes op at step %d (ts %s): \
               timestamp regressed"
              a.end_step (pp_ts a.ts) b.start_step (pp_ts b.ts))
        events)
    events;
  List.rev !violations
