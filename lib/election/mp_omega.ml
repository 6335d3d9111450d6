module Id = Mm_core.Id
module Domain_ = Mm_core.Domain
module Network = Mm_net.Network
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module Sched = Mm_sim.Sched

type Mm_net.Message.payload += Heartbeat

let mp_process ~n ~hb_period ~timeout ~adaptive ~report me () =
  let mi = Id.to_int me in
  let last_heard = Array.make n 0 in
  let timeouts = Array.make n timeout in
  let suspected = Array.make n false in
  let leader = ref None in
  let next_beat = ref 0 in
  let rec loop () =
    let now = Proc.my_steps () in
    List.iter
      (fun (src, payload) ->
        match payload with
        | Heartbeat ->
          let si = Id.to_int src in
          if suspected.(si) then begin
            suspected.(si) <- false;
            (* premature suspicion: back off *)
            if adaptive then timeouts.(si) <- timeouts.(si) * 2
          end;
          last_heard.(si) <- now
        | _ -> ())
      (Proc.receive ());
    if now >= !next_beat then begin
      Proc.send_all ~n Heartbeat;
      next_beat := now + hb_period
    end;
    for q = 0 to n - 1 do
      if q <> mi && (not suspected.(q)) && now - last_heard.(q) > timeouts.(q)
      then suspected.(q) <- true
    done;
    (* Leader: smallest unsuspected id; self is never suspected. *)
    let l =
      let rec first q =
        if q >= n then mi
        else if q = mi || not suspected.(q) then q
        else first (q + 1)
      in
      first 0
    in
    if !leader <> Some l then begin
      leader := Some l;
      report l
    end;
    Proc.yield ();
    loop ()
  in
  loop ()

let run ?(seed = 1) ?(hb_period = 8) ?(timeout = 64) ?(adaptive = false)
    ?(timely = [ (0, 4) ]) ?(crashes = []) ?(warmup = 60_000)
    ?(window = 20_000) ?delay ~n () =
  let sched = Sched.create ~timely Sched.Random in
  let eng =
    Engine.create ~seed ~sched ?delay ~domain:(Domain_.isolated n)
      ~link:Network.Reliable ~n ()
  in
  let crashed = Engine.crash_plan eng crashes in
  let report, measure = Omega.leader_log eng ~crashed in
  List.iter
    (fun p ->
      let report = report (Id.to_int p) in
      Engine.spawn eng p (mp_process ~n ~hb_period ~timeout ~adaptive ~report p))
    (Id.all n);
  measure ~opens_at:warmup ~silent:false ~window ~cap:(warmup + window)
