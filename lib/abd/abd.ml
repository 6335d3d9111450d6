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

(* Lexicographic [a > b] on timestamps, without polymorphic compare. *)
let ts_gt ((ca, wa) : ts) ((cb, wb) : ts) = ca > cb || (ca = cb && wa > wb)

let abd_process ~n ~record ~mark_done me script () =
  let mi = Id.to_int me in
  let replica_ts = ref ts_zero in
  let replica_v = ref 0 in
  (* Quorum accumulators for the one round in flight: its uid, the
     replies counted so far and, for a read round, the highest (ts, v)
     among them.  [fresh_uid] starts a round and resets them; a reply for
     any other uid belongs to a finished round and is ignored. *)
  let next_uid = ref 0 in
  let cur_uid = ref (-1) in
  let replies = ref 0 in
  let best_ts = ref ts_zero in
  let best_v = ref 0 in
  let fresh_uid () =
    incr next_uid;
    cur_uid := (mi * 1_000_000) + !next_uid;
    replies := 0;
    best_ts := (-1, -1);
    best_v := 0;
    !cur_uid
  in
  let handle (src, payload) =
    match payload with
    | Write_req { uid; ts; v } ->
      if ts_gt ts !replica_ts then begin
        replica_ts := ts;
        replica_v := v
      end;
      Proc.send src (Write_ack { uid })
    | Read_q { uid } -> Proc.send src (Read_r { uid; ts = !replica_ts; v = !replica_v })
    | Write_ack { uid } -> if uid = !cur_uid then incr replies
    | Read_r { uid; ts; v } ->
      if uid = !cur_uid then begin
        incr replies;
        if ts_gt ts !best_ts then begin
          best_ts := ts;
          best_v := v
        end
      end
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
  let majority () = serve_until (fun () -> 2 * !replies > n) in
  let write_quorum ts v =
    let uid = fresh_uid () in
    Proc.send_all ~n (Write_req { uid; ts; v });
    majority ()
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
      majority ();
      let ts = (fst !best_ts + 1, mi) in
      write_quorum ts v;
      ignore (record (`End { proc = mi; kind = `Write v; ts; start_step = start; end_step = 0 }))
    | `Read ->
      let start = record `Start in
      let uid = fresh_uid () in
      Proc.send_all ~n (Read_q { uid });
      majority ();
      let ts = !best_ts and v = !best_v in
      (* write-back phase: makes concurrent reads linearizable *)
      write_quorum ts v;
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
