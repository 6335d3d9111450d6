(* Tests of the effect-based simulation engine: step atomicity, message
   delivery, register semantics, crash injection, scheduling policies and
   timeliness enforcement. *)

module Id = Mm_core.Id
module Domain = Mm_core.Domain
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module Sched = Mm_sim.Sched
module Trace = Mm_sim.Trace

type Mm_net.Message.payload += Ping of int | Pong of int

let full_domain n = Domain.full n

let make ?(seed = 42) ?(link = Network.Reliable) ?sched ?delay n =
  Engine.create ?sched ?delay ~seed ~domain:(full_domain n) ~link ~n ()

let test_ping_pong () =
  let eng = make 2 in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
  let got_pong = ref (-1) in
  Engine.spawn eng p0 (fun () ->
      Proc.send p1 (Ping 7);
      let rec wait () =
        match Proc.receive () with
        | [] ->
          Proc.yield ();
          wait ()
        | (_, Pong x) :: _ -> got_pong := x
        | _ :: _ -> wait ()
      in
      wait ());
  Engine.spawn eng p1 (fun () ->
      let rec wait () =
        match Proc.receive () with
        | [] ->
          Proc.yield ();
          wait ()
        | (src, Ping x) :: _ -> Proc.send src (Pong (x * 10))
        | _ :: _ -> wait ()
      in
      wait ());
  let reason = Engine.run eng ~max_steps:10_000 () in
  Alcotest.(check int) "pong payload" 70 !got_pong;
  Alcotest.(check bool) "finished" true (reason = Engine.Quiescent)

let test_registers () =
  let eng = make 2 in
  let store = Engine.store eng in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
  let r = Mem.alloc store ~name:"r" ~owner:p0 ~shared_with:[ p1 ] 0 in
  let seen = ref (-1) in
  Engine.spawn eng p0 (fun () -> Proc.write r 41);
  Engine.spawn eng p1 (fun () ->
      let rec wait () =
        let v = Proc.read r in
        if v = 0 then begin
          Proc.yield ();
          wait ()
        end
        else seen := v
      in
      wait ());
  ignore (Engine.run eng ~max_steps:10_000 ());
  Alcotest.(check int) "read sees write" 41 !seen;
  let c = Mem.counters_of store p0 in
  Alcotest.(check int) "owner write is local" 1 c.Mem.writes_local

let test_access_violation () =
  let eng = make ~seed:1 3 in
  let store = Engine.store eng in
  let p0 = Id.of_int 0 and p2 = Id.of_int 2 in
  (* Domain is full so allocation succeeds for {0,1}; access by 2 must
     still fail because 2 is not a member of this register. *)
  let r = Mem.alloc store ~name:"priv" ~owner:p0 ~shared_with:[ Id.of_int 1 ] 0 in
  Engine.spawn eng p2 (fun () -> ignore (Proc.read r));
  Alcotest.check_raises "violation"
    (Mem.Access_violation { reg = "priv"; by = p2 })
    (fun () -> ignore (Engine.run eng ~max_steps:100 ()))

let test_domain_forbids_alloc () =
  let g = Mm_graph.Builders.ring 5 in
  let dom = Domain.uniform_of_graph g in
  let store = Mem.create dom in
  (* {0,2,3} fits in no closed neighborhood of the 5-ring (note that
     {0,2} alone WOULD fit, inside S_1 = {0,1,2}). *)
  ignore
    (Mem.alloc store ~name:"ok" ~owner:(Id.of_int 0)
       ~shared_with:[ Id.of_int 2 ] 0);
  Alcotest.(check bool)
    "alloc rejected" true
    (try
       ignore
         (Mem.alloc store ~name:"x" ~owner:(Id.of_int 0)
            ~shared_with:[ Id.of_int 2; Id.of_int 3 ] 0);
       false
     with Invalid_argument _ -> true)

let test_crash () =
  let eng = make ~seed:3 2 in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
  let count0 = ref 0 and count1 = ref 0 in
  let spin counter () =
    let rec go () =
      incr counter;
      Proc.yield ();
      go ()
    in
    go ()
  in
  Engine.spawn eng p0 (spin count0);
  Engine.spawn eng p1 (spin count1);
  Engine.crash_at eng p1 50;
  let reason = Engine.run eng ~max_steps:500 () in
  Alcotest.(check bool) "hits step limit" true (reason = Engine.Step_limit);
  Alcotest.(check bool) "p1 crashed" true
    (Engine.status_of eng p1 = Engine.Crashed);
  Alcotest.(check bool) "p1 stopped early" true (Engine.steps_of eng p1 <= 51);
  Alcotest.(check bool) "p0 kept running" true (Engine.steps_of eng p0 > 400)

let test_crash_before_start () =
  let eng = make ~seed:4 2 in
  let p1 = Id.of_int 1 in
  let ran = ref false in
  Engine.spawn eng (Id.of_int 0) (fun () -> Proc.yield ());
  Engine.spawn eng p1 (fun () -> ran := true);
  Engine.crash_at eng p1 0;
  ignore (Engine.run eng ~max_steps:100 ());
  Alcotest.(check bool) "crashed process never ran its first step" true
    (Engine.steps_of eng p1 = 0)

let test_crash_at_conflict () =
  let eng = make ~seed:5 2 in
  let p1 = Id.of_int 1 in
  Engine.spawn eng (Id.of_int 0) (fun () -> Proc.yield ());
  Engine.spawn eng p1 (fun () -> Proc.yield ());
  Engine.crash_at eng p1 50;
  (* Re-scheduling the same step is idempotent... *)
  Engine.crash_at eng p1 50;
  (* ...but a different step is a conflicting fault plan. *)
  Alcotest.(check bool) "conflicting schedule rejected" true
    (try Engine.crash_at eng p1 60; false with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative step rejected" true
    (try Engine.crash_at eng (Id.of_int 0) (-1); false
     with Invalid_argument _ -> true)

let test_freeze_thaw () =
  let eng = make ~seed:6 2 in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
  let count0 = ref 0 and count1 = ref 0 in
  let spin counter () =
    let rec go () =
      incr counter;
      Proc.yield ();
      go ()
    in
    go ()
  in
  Engine.spawn eng p0 (spin count0);
  Engine.spawn eng p1 (spin count1);
  Engine.freeze eng p1;
  Alcotest.(check bool) "reported frozen" true (Engine.is_frozen eng p1);
  ignore (Engine.run eng ~max_steps:200 ());
  Alcotest.(check int) "no steps while frozen" 0 (Engine.steps_of eng p1);
  Alcotest.(check bool) "others kept running" true (!count0 > 100);
  Engine.thaw eng p1;
  Alcotest.(check bool) "reported thawed" false (Engine.is_frozen eng p1);
  ignore (Engine.run eng ~max_steps:200 ());
  Alcotest.(check bool) "resumed after thaw" true (Engine.steps_of eng p1 > 0);
  (* Freeze is slow-not-dead: the process never counts as crashed. *)
  Alcotest.(check bool) "never crashed" true
    (Engine.status_of eng p1 <> Engine.Crashed)

let test_all_frozen_advances_clock () =
  (* With every runnable process frozen the engine must advance the
     clock (frozen means slow, not dead) rather than report quiescence,
     so a scheduled thaw can still fire. *)
  let eng = make ~seed:7 2 in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
  let spin () =
    let rec go () =
      Proc.yield ();
      go ()
    in
    go ()
  in
  Engine.spawn eng p0 spin;
  Engine.spawn eng p1 spin;
  Engine.freeze eng p0;
  Engine.freeze eng p1;
  Engine.at eng ~step:50 (fun e ->
      Engine.thaw e p0;
      Engine.thaw e p1);
  let reason = Engine.run eng ~max_steps:500 () in
  Alcotest.(check bool) "ran past the freeze" true (reason = Engine.Step_limit);
  Alcotest.(check bool) "p0 resumed" true (Engine.steps_of eng p0 > 0)

let test_at_actions_fire_in_order () =
  let eng = make ~seed:8 1 in
  Engine.spawn eng (Id.of_int 0) (fun () ->
      for _ = 1 to 100 do
        Proc.yield ()
      done);
  let fired = ref [] in
  Engine.at eng ~step:30 (fun _ -> fired := 30 :: !fired);
  Engine.at eng ~step:10 (fun _ -> fired := 10 :: !fired);
  Engine.at eng ~step:20 (fun _ -> fired := 20 :: !fired);
  Alcotest.(check bool) "negative step rejected" true
    (try Engine.at eng ~step:(-1) (fun _ -> ()); false
     with Invalid_argument _ -> true);
  ignore (Engine.run eng ~max_steps:200 ());
  Alcotest.(check (list int)) "fired ascending" [ 10; 20; 30 ]
    (List.rev !fired)

let test_determinism () =
  let run_once seed =
    let eng = make ~seed 4 in
    let order = Buffer.create 64 in
    List.iter
      (fun p ->
        Engine.spawn eng p (fun () ->
            for _ = 1 to 10 do
              Buffer.add_string order (string_of_int (Id.to_int p));
              Proc.yield ()
            done))
      (Id.all 4);
    ignore (Engine.run eng ~max_steps:1_000 ());
    Buffer.contents order
  in
  Alcotest.(check string) "same seed, same schedule" (run_once 99) (run_once 99);
  Alcotest.(check bool)
    "different seed, different schedule" true
    (run_once 99 <> run_once 100)

let test_round_robin () =
  let sched = Sched.create Sched.Round_robin in
  let eng = make ~sched 3 in
  let order = Buffer.create 32 in
  List.iter
    (fun p ->
      Engine.spawn eng p (fun () ->
          for _ = 1 to 3 do
            Buffer.add_string order (string_of_int (Id.to_int p));
            Proc.yield ()
          done))
    (Id.all 3);
  ignore (Engine.run eng ~max_steps:100 ());
  (* First steps run the fiber prologues in id order; afterwards strict
     rotation.  The exact interleaving is fixed: 0,1,2 repeating. *)
  Alcotest.(check string) "rotation" "012012012" (Buffer.contents order)

let test_timeliness () =
  (* An adversarial base policy that always prefers the highest id would
     starve process 0; declaring 0 timely with bound 4 must force it in
     regularly. *)
  let sched =
    Sched.create ~timely:[ (0, 4) ]
      (Sched.Custom (fun v -> v.Sched.runnable.(v.Sched.count - 1)))
  in
  let eng = make ~sched 3 in
  let steps_when_0 = ref [] in
  List.iter
    (fun p ->
      Engine.spawn eng p (fun () ->
          let rec go () =
            if Id.to_int p = 0 then
              steps_when_0 := Proc.my_steps () :: !steps_when_0;
            Proc.yield ();
            go ()
          in
          go ()))
    (Id.all 3);
  ignore (Engine.run eng ~max_steps:300 ());
  let count0 = Engine.steps_of eng (Id.of_int 0) in
  Alcotest.(check bool)
    (Printf.sprintf "process 0 not starved (got %d steps)" count0)
    true (count0 > 20)

let test_fair_lossy_drops_and_delivers () =
  let eng = make ~seed:7 ~link:(Network.Fair_lossy 0.5) 2 in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
  let received = ref 0 in
  Engine.spawn eng p0 (fun () ->
      for i = 1 to 200 do
        Proc.send p1 (Ping i)
      done);
  Engine.spawn eng p1 (fun () ->
      let rec go () =
        let msgs = Proc.receive () in
        received := !received + List.length msgs;
        if !received < 50 then begin
          Proc.yield ();
          go ()
        end
      in
      go ());
  ignore (Engine.run eng ~max_steps:50_000 ());
  let s = Network.stats (Engine.network eng) in
  Alcotest.(check bool) "some drops" true (s.Network.dropped > 20);
  Alcotest.(check bool) "some deliveries" true (!received >= 50)

let test_blocked_link_holds_messages () =
  let eng = make ~seed:8 2 in
  let net = Engine.network eng in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
  let unblock_at = 200 in
  Network.set_block_fn net (fun ~now ~src:_ ~dst:_ -> now < unblock_at);
  let got_at = ref (-1) in
  Engine.spawn eng p0 (fun () -> Proc.send p1 (Ping 1));
  Engine.spawn eng p1 (fun () ->
      let rec go () =
        match Proc.receive () with
        | [] ->
          Proc.yield ();
          go ()
        | _ -> got_at := Proc.my_steps ()
      in
      go ());
  let reason = Engine.run eng ~max_steps:10_000 () in
  Alcotest.(check bool) "eventually delivered" true (reason = Engine.Quiescent);
  Alcotest.(check bool) "held until unblock" true (!got_at >= 50)

let test_coin_determinism () =
  let flips seed =
    let eng = make ~seed 1 in
    let acc = ref [] in
    Engine.spawn eng (Id.of_int 0) (fun () ->
        for _ = 1 to 20 do
          acc := Proc.coin () :: !acc
        done);
    ignore (Engine.run eng ~max_steps:1000 ());
    !acc
  in
  Alcotest.(check bool) "same" true (flips 5 = flips 5);
  Alcotest.(check bool) "coin count" true (flips 5 <> flips 6)

let test_atomic_step () =
  (* Two processes incrementing via atomic read-modify-write never lose
     updates, unlike two separate read/write steps. *)
  let eng = make ~seed:9 2 in
  let store = Engine.store eng in
  let r =
    Mem.alloc store ~name:"ctr" ~owner:(Id.of_int 0)
      ~shared_with:[ Id.of_int 1 ] 0
  in
  List.iter
    (fun p ->
      Engine.spawn eng p (fun () ->
          for _ = 1 to 50 do
            Proc.atomic (fun () -> Mem.write r ~by:p (Mem.read r ~by:p + 1))
          done))
    (Id.all 2);
  ignore (Engine.run eng ~max_steps:10_000 ());
  Alcotest.(check int) "no lost updates" 100 (Mem.peek r)

let test_double_spawn_rejected () =
  let eng = make 2 in
  Engine.spawn eng (Id.of_int 0) (fun () -> ());
  Alcotest.(check bool) "raises" true
    (try
       Engine.spawn eng (Id.of_int 0) (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_run_resumes () =
  (* run can be called repeatedly; the step counter is global. *)
  let eng = make 1 in
  let count = ref 0 in
  Engine.spawn eng (Id.of_int 0) (fun () ->
      let rec go () =
        incr count;
        Proc.yield ();
        go ()
      in
      go ());
  Alcotest.(check bool) "first slice" true
    (Engine.run eng ~max_steps:10 () = Engine.Step_limit);
  let after_first = !count in
  Alcotest.(check bool) "second slice continues" true
    (Engine.run eng ~max_steps:10 () = Engine.Step_limit);
  Alcotest.(check bool) "progressed" true (!count > after_first);
  Alcotest.(check int) "global step" 20 (Engine.now eng)

(* The engine's steady-state step loop: two processes that only yield,
   trace off.  What a step may allocate is the fiber's continuation, the
   effect handler's closure and the pending-effect record; pin that
   budget so a boxed draw or a per-step list cannot creep back in. *)
let test_step_allocation () =
  let eng = make 2 in
  List.iter
    (fun i ->
      Engine.spawn eng (Id.of_int i) (fun () ->
          let rec go () =
            Proc.yield ();
            go ()
          in
          go ()))
    [ 0; 1 ];
  ignore (Engine.run eng ~max_steps:100 ());
  let steps = 10_000 in
  let before = Gc.minor_words () in
  ignore (Engine.run eng ~max_steps:steps ());
  let per_step = (Gc.minor_words () -. before) /. float_of_int steps in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per step (<= 12)" per_step)
    true (per_step <= 12.0)

let test_until_already_true () =
  let eng = make 1 in
  Engine.spawn eng (Id.of_int 0) (fun () -> Proc.yield ());
  let r = Engine.run eng ~until:(fun () -> true) () in
  Alcotest.(check bool) "stops immediately" true (r = Engine.Stopped);
  Alcotest.(check int) "no steps" 0 (Engine.now eng)

let test_crash_done_process_harmless () =
  let eng = make 2 in
  Engine.spawn eng (Id.of_int 0) (fun () -> ());
  Engine.spawn eng (Id.of_int 1) (fun () -> Proc.yield ());
  ignore (Engine.run eng ~max_steps:100 ());
  Alcotest.(check bool) "p0 done" true
    (Engine.status_of eng (Id.of_int 0) = Engine.Done);
  Engine.crash_at eng (Id.of_int 0) (Engine.now eng);
  ignore (Engine.run eng ~max_steps:10 ());
  Alcotest.(check bool) "still done, not crashed" true
    (Engine.status_of eng (Id.of_int 0) = Engine.Done)

let test_unspawned_process_is_not_runnable () =
  let eng = make 3 in
  Engine.spawn eng (Id.of_int 0) (fun () -> Proc.yield ());
  (* processes 1, 2 never spawned: the run still quiesces *)
  let r = Engine.run eng ~max_steps:1_000 () in
  Alcotest.(check bool) "quiescent" true (r = Engine.Quiescent);
  Alcotest.(check bool) "unspawned status" true
    (Engine.status_of eng (Id.of_int 1) = Engine.Unspawned)

let test_correct_list () =
  let eng = make 3 in
  Engine.spawn eng (Id.of_int 0) (fun () -> ());
  Engine.spawn eng (Id.of_int 1) (fun () ->
      let rec go () =
        Proc.yield ();
        go ()
      in
      go ());
  Engine.crash_at eng (Id.of_int 2) 0;
  ignore (Engine.run eng ~max_steps:50 ());
  (* 0 finished (Done = not "correct" for our bookkeeping), 2 crashed *)
  Alcotest.(check (list int)) "correct = still-live" [ 1 ]
    (List.map Id.to_int (Engine.correct eng))

(* --- crash-recovery: restarts, recovery closures, backoff --- *)

(* A restart is a host reboot: the recovery fiber sees the register the
   first incarnation wrote (native registers survive their owner's
   crash, §3) but an empty mailbox (messages queued before the crash are
   gone), and the trace records the re-entry. *)
let test_restart_semantics () =
  let eng =
    Engine.create ~seed:7 ~trace_capacity:256 ~domain:(full_domain 2)
      ~link:Network.Reliable ~n:2 ()
  in
  let store = Engine.store eng in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
  let r = Mem.alloc store ~name:"r" ~owner:p0 ~shared_with:[ p1 ] 0 in
  let first_steps = ref 0 in
  let recovered_reg = ref (-1) and recovered_msgs = ref (-1) in
  Engine.spawn eng p0
    ~recover:(fun () ->
      recovered_reg := Proc.read r;
      recovered_msgs := List.length (Proc.receive ());
      Proc.yield ())
    (fun () ->
      Proc.write r 41;
      let rec loop () =
        incr first_steps;
        Proc.yield ();
        loop ()
      in
      loop ());
  (* Two messages delivered well before the crash sit in p0's mailbox
     (the first incarnation never receives) and must not survive it. *)
  Engine.spawn eng p1 (fun () ->
      Proc.send p0 (Ping 1);
      Proc.send p0 (Ping 2));
  Alcotest.(check bool) "has_recovery" true (Engine.has_recovery eng p0);
  Alcotest.(check bool) "crash-stop peer" false (Engine.has_recovery eng p1);
  Engine.crash_at eng p0 25;
  Engine.restart_at eng p0 50;
  ignore (Engine.run eng ~max_steps:200 ());
  Alcotest.(check bool) "first incarnation ran" true (!first_steps > 0);
  Alcotest.(check int) "register survived the crash" 41 !recovered_reg;
  Alcotest.(check int) "mailbox wiped" 0 !recovered_msgs;
  Alcotest.(check bool) "recovered fiber ran to completion" true
    (Engine.status_of eng p0 = Engine.Done);
  let events =
    match Engine.trace eng with Some t -> Trace.to_list t | None -> []
  in
  Alcotest.(check bool) "trace records the crash" true
    (List.exists
       (fun e -> e.Trace.pid = p0 && e.Trace.op = Trace.Crashed)
       events);
  Alcotest.(check bool) "trace records the restart" true
    (List.exists
       (fun e -> e.Trace.pid = p0 && e.Trace.op = Trace.Restarted)
       events)

(* A restart due while the process is not crashed (here: it finished
   before its scheduled crash) is discarded, mirroring crash-on-Done. *)
let test_restart_discarded_when_done () =
  let eng =
    Engine.create ~seed:8 ~trace_capacity:64 ~domain:(full_domain 2)
      ~link:Network.Reliable ~n:2 ()
  in
  let p0 = Id.of_int 0 in
  let recovered = ref false in
  Engine.spawn eng p0 ~recover:(fun () -> recovered := true) (fun () -> ());
  Engine.spawn eng (Id.of_int 1) (fun () ->
      let rec go () =
        Proc.yield ();
        go ()
      in
      go ());
  Engine.crash_at eng p0 50;
  Engine.restart_at eng p0 60;
  ignore (Engine.run eng ~max_steps:100 ());
  Alcotest.(check bool) "still done" true
    (Engine.status_of eng p0 = Engine.Done);
  Alcotest.(check bool) "recovery closure never ran" false !recovered

(* crash_at / crash_now / restart_at / restart_now share one validation
   family: every harness-bug shape raises Invalid_argument. *)
let test_crash_api_validation () =
  let cases =
    [
      ( "negative crash step",
        `Rejects,
        fun e p0 _ ->
          ignore p0;
          Engine.crash_at e p0 (-1) );
      ( "conflicting crash schedule",
        `Rejects,
        fun e p0 _ ->
          Engine.crash_at e p0 5;
          Engine.crash_at e p0 6 );
      ( "re-scheduling same crash step",
        `Accepts,
        fun e p0 _ ->
          Engine.crash_at e p0 5;
          Engine.crash_at e p0 5 );
      ( "crash_now on crashed process",
        `Rejects,
        fun e p0 _ ->
          Engine.crash_now e p0;
          ignore (Engine.run e ~max_steps:3 ());
          Engine.crash_now e p0 );
      ( "negative restart step",
        `Rejects,
        fun e p0 _ ->
          Engine.crash_at e p0 5;
          Engine.restart_at e p0 (-1) );
      ( "restart without recovery closure",
        `Rejects,
        fun e _ p1 ->
          Engine.crash_at e p1 5;
          Engine.restart_at e p1 10 );
      ( "restart with no crash to recover from",
        `Rejects,
        fun e p0 _ -> Engine.restart_at e p0 10 );
      ( "restart before its crash lands",
        `Rejects,
        fun e p0 _ ->
          Engine.crash_at e p0 20;
          Engine.restart_at e p0 10 );
      ( "conflicting restart schedule",
        `Rejects,
        fun e p0 _ ->
          Engine.crash_at e p0 5;
          Engine.restart_at e p0 10;
          Engine.restart_at e p0 12 );
      ( "re-scheduling same restart step",
        `Accepts,
        fun e p0 _ ->
          Engine.crash_at e p0 5;
          Engine.restart_at e p0 10;
          Engine.restart_at e p0 10 );
      ( "restart after its crash step",
        `Accepts,
        fun e p0 _ ->
          Engine.crash_at e p0 5;
          Engine.restart_at e p0 5 );
    ]
  in
  List.iter
    (fun (name, expect, f) ->
      (* Fresh engine per case so schedules never leak between rows. *)
      let eng = make ~seed:9 2 in
      let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
      let idle () =
        let rec go () =
          Proc.yield ();
          go ()
        in
        go ()
      in
      Engine.spawn eng p0 ~recover:idle idle;
      Engine.spawn eng p1 idle;
      match expect with
      | `Rejects ->
        Alcotest.(check bool) name true
          (try
             f eng p0 p1;
             false
           with Invalid_argument _ -> true)
      | `Accepts -> (
        try f eng p0 p1
        with Invalid_argument m -> Alcotest.failf "%s: rejected: %s" name m))
    cases

(* Emulated registers during a majority outage: the blocked op retries
   under capped exponential backoff, so a w-step outage produces O(log w)
   blocked attempts — not one per scheduler pick — and completes once a
   restart restores the quorum. *)
let test_emulated_backoff_olog () =
  let window = 1_500 in
  let eng =
    Engine.create ~seed:11 ~backend:Mem.Backend.Emulated
      ~domain:(full_domain 3) ~link:Network.Reliable ~n:3 ()
  in
  let store = Engine.store eng in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 and p2 = Id.of_int 2 in
  let r = Mem.alloc store ~name:"r" ~owner:p0 ~shared_with:[ p1; p2 ] 5 in
  let got = ref (-1) in
  Engine.spawn eng p0 (fun () -> got := Proc.read r);
  let idle () =
    let rec go () =
      Proc.yield ();
      go ()
    in
    go ()
  in
  Engine.spawn eng p1 ~recover:idle idle;
  Engine.spawn eng p2 ~recover:idle idle;
  (* Both peers down from step 0: one live host of three, no quorum. *)
  Engine.crash_at eng p1 0;
  Engine.crash_at eng p2 0;
  Engine.restart_at eng p1 window;
  Engine.restart_at eng p2 window;
  ignore (Engine.run eng ~max_steps:(window + 2_000) ());
  Alcotest.(check int) "read served once the quorum is back" 5 !got;
  let blocked = Mem.blocked_ops store in
  Alcotest.(check bool) "the op did block" true (blocked > 0);
  (* log2 1500 ~ 11; leave slack for the pre-cap ramp. *)
  Alcotest.(check bool)
    (Printf.sprintf "O(log window) blocked attempts (got %d)" blocked)
    true (blocked <= 16)

(* The run loop only ticks the network and drains the fault heaps once
   something is due.  These pin the exact steps at which deferred events
   land, as the engine has always produced them. *)

let traced ?(seed = 3) ?delay ?(backend = Mem.Backend.Native) n =
  Engine.create ~seed ?delay ~backend ~trace_capacity:4096
    ~domain:(full_domain n) ~link:Network.Reliable ~n ()

let steps_of_events eng keep =
  List.filter_map
    (fun (e : Trace.event) -> if keep e.Trace.op then Some e.Trace.step else None)
    (Trace.to_list (Option.get (Engine.trace eng)))

let spin () =
  let rec go () =
    Proc.yield ();
    go ()
  in
  go ()

(* The sender finishes with its send and the only other process is
   frozen: the clock advances on idle ticks alone, and a Fixed 3 message
   lands exactly 3 steps after it was sent. *)
let test_idle_delivery_exact () =
  let eng = traced ~delay:(Network.Fixed 3) 2 in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
  (* Step 0 starts the fiber; the yields take steps 1-5. *)
  Engine.spawn eng p0 (fun () ->
      for _ = 1 to 5 do
        Proc.yield ()
      done;
      Proc.send p1 (Ping 1));
  Engine.spawn eng p1 spin;
  Engine.freeze eng p1;
  let reason = Engine.run eng ~max_steps:20 () in
  Alcotest.(check bool) "clock ran on" true (reason = Engine.Step_limit);
  Alcotest.(check (list int)) "sent at" [ 6 ]
    (steps_of_events eng (function Trace.Sent _ -> true | _ -> false));
  Alcotest.(check (list int)) "delivered at send + 3" [ 9 ]
    (steps_of_events eng (function Trace.Delivered _ -> true | _ -> false));
  Alcotest.(check int) "in the mailbox" 1
    (Network.peek_count (Engine.network eng) p1)

(* A crash scheduled far beyond every other event still fires at its
   step: the process takes exactly that many steps. *)
let test_far_crash_exact () =
  let eng = traced 2 in
  let p0 = Id.of_int 0 in
  Engine.spawn eng p0 spin;
  Engine.crash_at eng p0 1_000;
  let reason = Engine.run eng ~max_steps:5_000 () in
  Alcotest.(check bool) "quiescent after the crash" true
    (reason = Engine.Quiescent);
  Alcotest.(check (list int)) "crashed at" [ 1_000 ]
    (steps_of_events eng (function Trace.Crashed -> true | _ -> false));
  Alcotest.(check int) "steps before it" 1_000 (Engine.steps_of eng p0)

(* A blocked emulated op parks until its [retry_at] (backoff 1, 2, 4, ...)
   and is re-admitted exactly then; once a restart brings the quorum back,
   the next retry succeeds. *)
let test_blocked_retry_exact () =
  let eng = traced ~backend:Mem.Backend.Emulated 3 in
  let p0 = Id.of_int 0 and p1 = Id.of_int 1 and p2 = Id.of_int 2 in
  let r =
    Mem.alloc (Engine.store eng) ~name:"r" ~owner:p0 ~shared_with:[ p1; p2 ] 5
  in
  Engine.spawn eng p0 (fun () -> ignore (Proc.read r : int));
  Engine.spawn eng p1 ~recover:(fun () -> ()) spin;
  Engine.spawn eng p2 spin;
  Engine.crash_at eng p1 0;
  Engine.crash_at eng p2 0;
  Engine.restart_at eng p1 40;
  let reason = Engine.run eng ~max_steps:1_000 () in
  Alcotest.(check bool) "quiescent" true (reason = Engine.Quiescent);
  (* Step 0 starts the fiber; its first read blocks at step 1. *)
  Alcotest.(check (list int)) "blocked at" [ 1; 2; 4; 8; 16; 32 ]
    (steps_of_events eng (function Trace.Blocked _ -> true | _ -> false));
  Alcotest.(check (list int)) "restarted at" [ 40 ]
    (steps_of_events eng (function Trace.Restarted -> true | _ -> false));
  Alcotest.(check (list int)) "read at the next retry" [ 64 ]
    (steps_of_events eng (function Trace.Read _ -> true | _ -> false))

(* The run record's network counters and the trace tell the same story:
   every send, delivery and drop is one event, so on a run whose trace
   holds every event the counts agree exactly. *)
let run_record_counts ?link ~crashes () =
  let module Hbo = Mm_consensus.Hbo in
  let graph = Mm_graph.Builders.ring 5 in
  let o =
    Hbo.run ~seed:3 ~impl:Hbo.Trusted ~trace_capacity:1_000_000 ?link
      ~max_steps:20_000 ~crashes ~graph ~inputs:[| 0; 1; 0; 1; 1 |] ()
  in
  let run = o.Hbo.run in
  let count f = List.length (List.filter (fun e -> f e.Trace.op) run.trace) in
  let sent = count (function Trace.Sent _ -> true | _ -> false) in
  let delivered = count (function Trace.Delivered _ -> true | _ -> false) in
  let dropped = count (function Trace.Dropped -> true | _ -> false) in
  let s = run.Engine.net in
  Alcotest.(check (list int))
    "sent/delivered/dropped = trace counts" [ sent; delivered; dropped ]
    [ s.Network.sent; s.Network.delivered; s.Network.dropped ];
  (run.crashed, s)

let test_run_record () =
  let crashed, s = run_record_counts ~crashes:[] () in
  Alcotest.(check (array bool)) "no crash planned" (Array.make 5 false) crashed;
  Alcotest.(check (list int)) "ring-5 traffic" [ 62; 62; 0 ]
    [ s.Network.sent; s.Network.delivered; s.Network.dropped ];
  let crashed, s =
    run_record_counts ~link:(Network.Fair_lossy 0.3)
      ~crashes:[ (1, 0); (3, 40) ] ()
  in
  Alcotest.(check (array bool)) "crash plan victims"
    [| false; true; false; true; false |] crashed;
  Alcotest.(check bool) "lossy run drops" true (s.Network.dropped > 0)

(* [crash_plan] is the one place crash plans enter the engine: it names a
   bad entry and schedules nothing when one is found. *)
let test_crash_plan () =
  let rejects what plan msg =
    let e = make 3 in
    Alcotest.check_raises what (Invalid_argument msg) (fun () ->
        ignore (Engine.crash_plan e plan));
    Alcotest.(check (array bool))
      (what ^ ": nothing planned") [| false; false; false |]
      (Engine.summary e).Engine.crashed;
    ignore (Engine.run e ~max_steps:10 ());
    Alcotest.(check int) (what ^ ": nothing crashed") 3 (Engine.correct_count e)
  in
  rejects "pid past n" [ (0, 1); (9, 0) ]
    "Engine.crash_plan: pid 9 outside [0, 3)";
  rejects "negative pid" [ (-1, 0) ] "Engine.crash_plan: pid -1 outside [0, 3)";
  rejects "negative step" [ (2, -4) ]
    "Engine.crash_plan: negative step -4 for pid 2";
  let e = make 3 in
  let crashed = Engine.crash_plan e [ (2, 0) ] in
  Alcotest.(check (array bool)) "victims" [| false; false; true |] crashed;
  Alcotest.(check bool) "summary shares the flags" true
    ((Engine.summary e).Engine.crashed == crashed);
  Alcotest.(check bool) "scheduled" true
    (Engine.status_of e (Id.of_int 2) = Engine.Unspawned);
  ignore (Engine.run e ~max_steps:1 ());
  Alcotest.(check bool) "crashed at step 0" true
    (Engine.status_of e (Id.of_int 2) = Engine.Crashed);
  (* An algorithm's run reports the same named error. *)
  Alcotest.check_raises "through Omega.run"
    (Invalid_argument "Engine.crash_plan: pid 9 outside [0, 3)") (fun () ->
      let module Omega = Mm_election.Omega in
      ignore (Omega.run ~crashes:[ (9, 0) ] ~variant:Omega.Reliable ~n:3 ()))

let prop_omega_elects_some_correct_leader =
  QCheck.Test.make ~name:"omega: elects a correct leader across seeds"
    ~count:12
    QCheck.(int_range 100 4000)
    (fun seed ->
      let module Omega = Mm_election.Omega in
      let o =
        Omega.run ~seed ~timely:[ (0, 4); (1, 4) ]
          ~crashes:(if seed mod 2 = 0 then [ (0, 5_000) ] else [])
          ~warmup:120_000 ~variant:Omega.Reliable ~n:4 ()
      in
      Omega.holds o)

let () =
  Alcotest.run "mm_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ping-pong" `Quick test_ping_pong;
          Alcotest.test_case "registers" `Quick test_registers;
          Alcotest.test_case "access violation" `Quick test_access_violation;
          Alcotest.test_case "domain forbids alloc" `Quick test_domain_forbids_alloc;
          Alcotest.test_case "crash" `Quick test_crash;
          Alcotest.test_case "crash before start" `Quick test_crash_before_start;
          Alcotest.test_case "crash_at conflict" `Quick test_crash_at_conflict;
          Alcotest.test_case "freeze/thaw" `Quick test_freeze_thaw;
          Alcotest.test_case "all frozen advances clock" `Quick
            test_all_frozen_advances_clock;
          Alcotest.test_case "at actions" `Quick test_at_actions_fire_in_order;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "round robin" `Quick test_round_robin;
          Alcotest.test_case "timeliness" `Quick test_timeliness;
          Alcotest.test_case "fair lossy" `Quick test_fair_lossy_drops_and_delivers;
          Alcotest.test_case "blocked link" `Quick test_blocked_link_holds_messages;
          Alcotest.test_case "coin determinism" `Quick test_coin_determinism;
          Alcotest.test_case "atomic step" `Quick test_atomic_step;
          Alcotest.test_case "run record" `Quick test_run_record;
        ] );
      ( "edges",
        [
          Alcotest.test_case "double spawn" `Quick test_double_spawn_rejected;
          Alcotest.test_case "run resumes" `Quick test_run_resumes;
          Alcotest.test_case "step allocation" `Quick test_step_allocation;
          Alcotest.test_case "until already true" `Quick test_until_already_true;
          Alcotest.test_case "crash done process" `Quick
            test_crash_done_process_harmless;
          Alcotest.test_case "unspawned not runnable" `Quick
            test_unspawned_process_is_not_runnable;
          Alcotest.test_case "correct list" `Quick test_correct_list;
          QCheck_alcotest.to_alcotest prop_omega_elects_some_correct_leader;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "restart semantics" `Quick test_restart_semantics;
          Alcotest.test_case "restart discarded when done" `Quick
            test_restart_discarded_when_done;
          Alcotest.test_case "crash API validation" `Quick
            test_crash_api_validation;
          Alcotest.test_case "crash plan validation" `Quick test_crash_plan;
          Alcotest.test_case "emulated backoff O(log w)" `Quick
            test_emulated_backoff_olog;
        ] );
      ( "gates",
        [
          Alcotest.test_case "idle delivery exact" `Quick
            test_idle_delivery_exact;
          Alcotest.test_case "far crash exact" `Quick test_far_crash_exact;
          Alcotest.test_case "blocked retry exact" `Quick
            test_blocked_retry_exact;
        ] );
    ]
