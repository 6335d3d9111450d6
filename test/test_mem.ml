(* Tests of the shared-memory store: domain enforcement, atomic register
   values, local/remote accounting, and window accounting. *)

module Id = Mm_core.Id
module Domain = Mm_core.Domain
module Mem = Mm_mem.Mem
module B = Mm_graph.Builders

let id = Id.of_int

let test_alloc_and_rw () =
  let store = Mem.create (Domain.full 3) in
  let r = Mem.alloc store ~name:"x" ~owner:(id 0) ~shared_with:[ id 1; id 2 ] 10 in
  Alcotest.(check int) "init" 10 (Mem.read r ~by:(id 1));
  Mem.write r ~by:(id 2) 20;
  Alcotest.(check int) "updated" 20 (Mem.read r ~by:(id 0));
  Alcotest.(check int) "reg count" 1 (Mem.reg_count store);
  Alcotest.(check string) "name" "x" (Mem.name r);
  Alcotest.(check int) "owner" 0 (Id.to_int (Mem.owner r));
  Alcotest.(check (list int)) "members" [ 0; 1; 2 ]
    (List.map Id.to_int (Mem.members r))

let test_domain_enforcement () =
  let dom = Domain.uniform_of_graph (B.path 4) in
  let store = Mem.create dom in
  (* 0-1 adjacent: ok *)
  ignore (Mem.alloc store ~name:"ok" ~owner:(id 0) ~shared_with:[ id 1 ] 0);
  (* {0,3}: the path endpoints fit in no closed neighborhood
     (note {0,2} WOULD fit inside S_1 = {0,1,2}) *)
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Mem.alloc store ~name:"bad" ~owner:(id 0) ~shared_with:[ id 3 ] 0);
       false
     with Invalid_argument _ -> true);
  (* whole neighborhood of 1 = {0,1,2}: ok *)
  ignore (Mem.alloc store ~name:"nbhd" ~owner:(id 1) ~shared_with:[ id 0; id 2 ] 0)

let test_access_violation () =
  let store = Mem.create (Domain.full 3) in
  let r = Mem.alloc store ~name:"x" ~owner:(id 0) ~shared_with:[ id 1 ] 0 in
  Alcotest.check_raises "read" (Mem.Access_violation { reg = "x"; by = id 2 })
    (fun () -> ignore (Mem.read r ~by:(id 2)));
  Alcotest.check_raises "write" (Mem.Access_violation { reg = "x"; by = id 2 })
    (fun () -> Mem.write r ~by:(id 2) 1)

let test_local_remote_accounting () =
  let store = Mem.create (Domain.full 2) in
  let r = Mem.alloc store ~name:"x" ~owner:(id 0) ~shared_with:[ id 1 ] 0 in
  Mem.write r ~by:(id 0) 1;
  Mem.write r ~by:(id 0) 2;
  ignore (Mem.read r ~by:(id 0));
  Mem.write r ~by:(id 1) 3;
  ignore (Mem.read r ~by:(id 1));
  ignore (Mem.read r ~by:(id 1));
  let c0 = Mem.counters_of store (id 0) in
  let c1 = Mem.counters_of store (id 1) in
  Alcotest.(check int) "owner writes local" 2 c0.Mem.writes_local;
  Alcotest.(check int) "owner reads local" 1 c0.Mem.reads_local;
  Alcotest.(check int) "owner no remote" 0 (c0.Mem.writes_remote + c0.Mem.reads_remote);
  Alcotest.(check int) "peer writes remote" 1 c1.Mem.writes_remote;
  Alcotest.(check int) "peer reads remote" 2 c1.Mem.reads_remote;
  let tot = Mem.total_counters store in
  Alcotest.(check int) "total ops" 6 (Mem.total_ops tot)

let test_window_accounting () =
  let store = Mem.create (Domain.full 2) in
  let r = Mem.alloc store ~name:"x" ~owner:(id 0) ~shared_with:[ id 1 ] 0 in
  Mem.write r ~by:(id 0) 1;
  let snap = Mem.snapshot store in
  Mem.write r ~by:(id 0) 2;
  ignore (Mem.read r ~by:(id 1));
  let d = Mem.diff_since store snap in
  Alcotest.(check int) "p0 window writes" 1 d.(0).Mem.writes_local;
  Alcotest.(check int) "p1 window reads" 1 d.(1).Mem.reads_remote;
  Alcotest.(check int) "p0 no reads" 0 d.(0).Mem.reads_local

let test_peek_no_accounting () =
  let store = Mem.create (Domain.full 1) in
  let r = Mem.alloc store ~name:"x" ~owner:(id 0) ~shared_with:[] 5 in
  Alcotest.(check int) "peek" 5 (Mem.peek r);
  Alcotest.(check int) "no ops recorded" 0 (Mem.total_ops (Mem.total_counters store))

let test_counters_arith () =
  let a = { Mem.reads_local = 1; reads_remote = 2; writes_local = 3; writes_remote = 4 } in
  let b = { Mem.reads_local = 10; reads_remote = 20; writes_local = 30; writes_remote = 40 } in
  let s = Mem.add_counters a b in
  Alcotest.(check int) "add" 11 s.Mem.reads_local;
  let d = Mem.sub_counters b a in
  Alcotest.(check int) "sub" 36 d.Mem.writes_remote;
  Alcotest.(check int) "zero" 0 (Mem.total_ops Mem.zero_counters)

let test_memory_failure () =
  let store = Mem.create (Domain.full 2) in
  let r0 = Mem.alloc store ~name:"at0" ~owner:(id 0) ~shared_with:[ id 1 ] 5 in
  let r1 = Mem.alloc store ~name:"at1" ~owner:(id 1) ~shared_with:[ id 0 ] 7 in
  Alcotest.(check bool) "initially healthy" false
    (Mem.host_memory_failed store (id 0));
  Mem.fail_host_memory store (id 0);
  Alcotest.(check bool) "failed" true (Mem.host_memory_failed store (id 0));
  (* writes to host-0 registers are lost, reads return the last value *)
  Mem.write r0 ~by:(id 1) 99;
  Mem.write r0 ~by:(id 0) 100;
  Alcotest.(check int) "frozen value" 5 (Mem.read r0 ~by:(id 1));
  Alcotest.(check int) "drops counted" 2 (Mem.dropped_writes store);
  (* other hosts unaffected *)
  Mem.write r1 ~by:(id 0) 42;
  Alcotest.(check int) "healthy host writes" 42 (Mem.read r1 ~by:(id 1));
  (* ops are still accounted (the NIC performed them) *)
  let c1 = Mem.counters_of store (id 1) in
  Alcotest.(check int) "write op counted" 1 c1.Mem.writes_remote

(* --- backends: native pin + ABD-emulation semantics --- *)

(* The default store IS the native backend, and native ops never touch
   the emulation machinery: same values, same counters, zero emulated
   messages, zero blocked ops, and the message transport is never
   invoked.  This pins the backend refactor to the pre-refactor
   behavior. *)
let test_native_differential () =
  let run store =
    let r =
      Mem.alloc store ~name:"x" ~owner:(id 0) ~shared_with:[ id 1; id 2 ] 0
    in
    Mem.write r ~by:(id 0) 1;
    Mem.write r ~by:(id 1) 2;
    ignore (Mem.read r ~by:(id 2));
    ignore (Mem.read r ~by:(id 0));
    (Mem.read r ~by:(id 1), Mem.total_counters store)
  in
  let dflt = Mem.create (Domain.full 3) in
  let native = Mem.create ~backend:Mem.Backend.Native (Domain.full 3) in
  let calls = ref 0 in
  Mem.set_transport native (fun ~sent:_ ~delivered:_ -> incr calls);
  let v1, c1 = run dflt in
  let v2, c2 = run native in
  Alcotest.(check int) "same value" v1 v2;
  Alcotest.(check bool) "same counters" true (c1 = c2);
  Alcotest.(check int) "native: transport never called" 0 !calls;
  Alcotest.(check int) "native: no emulated msgs" 0 (Mem.emulated_msgs native);
  Alcotest.(check int) "native: nothing blocked" 0 (Mem.blocked_ops native)

(* Every emulated op is one ABD quorum round: 2*(n + live) messages,
   pushed through the installed transport, and tallied remote — the
   §5.3 locality the native backend gives away is forfeited. *)
let test_emulated_accounting () =
  let n = 4 in
  let store = Mem.create ~backend:Mem.Backend.Emulated (Domain.full n) in
  let sent = ref 0 and delivered = ref 0 in
  Mem.set_transport store (fun ~sent:s ~delivered:d ->
      sent := !sent + s;
      delivered := !delivered + d);
  let r =
    Mem.alloc store ~name:"x" ~owner:(id 0) ~shared_with:[ id 1; id 2; id 3 ] 0
  in
  Mem.write r ~by:(id 0) 7;
  ignore (Mem.read r ~by:(id 0));
  (* owner or not, all live: each op costs 2*(4+4) = 16 messages *)
  Alcotest.(check int) "two rounds" 32 (Mem.emulated_msgs store);
  Alcotest.(check int) "transport sent" 32 !sent;
  Alcotest.(check int) "transport delivered" 32 !delivered;
  let c0 = Mem.counters_of store (id 0) in
  Alcotest.(check int) "owner write is remote" 1 c0.Mem.writes_remote;
  Alcotest.(check int) "owner read is remote" 1 c0.Mem.reads_remote;
  Alcotest.(check int) "no local ops" 0
    (c0.Mem.reads_local + c0.Mem.writes_local);
  (* a crash shrinks the round: live = 3, so 2*(4+3) = 14 more *)
  Mem.note_crash store (id 3);
  ignore (Mem.read r ~by:(id 1));
  Alcotest.(check int) "smaller round" (32 + 14) (Mem.emulated_msgs store);
  Alcotest.(check int) "min live seen" 3 (Mem.emulated_min_live store)

(* At the f < n/2 bound the emulation loses wait-freedom: ops raise
   [Unavailable], count as blocked, and move no other counter.  Native
   registers sail through the same crash set. *)
let test_emulated_unavailable () =
  let n = 4 in
  let store = Mem.create ~backend:Mem.Backend.Emulated (Domain.full n) in
  let r =
    Mem.alloc store ~name:"x" ~owner:(id 0) ~shared_with:[ id 1; id 2; id 3 ] 5
  in
  Mem.note_crash store (id 2);
  Mem.note_crash store (id 3);
  Mem.note_crash store (id 3);
  (* idempotent *)
  Alcotest.(check int) "live" 2 (Mem.live_hosts store);
  let msgs_before = Mem.emulated_msgs store in
  Alcotest.(check bool) "read blocks" true
    (try
       ignore (Mem.read r ~by:(id 0));
       false
     with Mem.Unavailable _ -> true);
  Alcotest.(check bool) "write blocks" true
    (try
       Mem.write r ~by:(id 1) 9;
       false
     with Mem.Unavailable _ -> true);
  Alcotest.(check int) "blocked counted" 2 (Mem.blocked_ops store);
  Alcotest.(check int) "no messages moved" msgs_before
    (Mem.emulated_msgs store);
  Alcotest.(check int) "no ops tallied" 0
    (Mem.total_ops (Mem.total_counters store));
  (* the native twin tolerates the same crash set *)
  let nat = Mem.create ~backend:Mem.Backend.Native (Domain.full n) in
  let rn =
    Mem.alloc nat ~name:"x" ~owner:(id 0) ~shared_with:[ id 1; id 2; id 3 ] 5
  in
  Mem.note_crash nat (id 2);
  Mem.note_crash nat (id 3);
  Mem.write rn ~by:(id 0) 9;
  Alcotest.(check int) "native still serves" 9 (Mem.read rn ~by:(id 1))

(* A restarted host rejoins the emulated quorum — Unavailable clears as
   soon as a majority is back, and the register still serves the last
   value written before the outage.  Memory failure is a different axis:
   a fail_host_memory'd replica stays omission-faulty across restarts. *)
let test_note_restart () =
  let n = 4 in
  let store = Mem.create ~backend:Mem.Backend.Emulated (Domain.full n) in
  let r =
    Mem.alloc store ~name:"x" ~owner:(id 0) ~shared_with:[ id 1; id 2; id 3 ] 5
  in
  Mem.write r ~by:(id 1) 7;
  Mem.note_crash store (id 2);
  Mem.note_crash store (id 3);
  Alcotest.(check int) "live" 2 (Mem.live_hosts store);
  Alcotest.(check bool) "no quorum" true
    (try
       ignore (Mem.read r ~by:(id 0));
       false
     with Mem.Unavailable _ -> true);
  Mem.note_restart store (id 3);
  Mem.note_restart store (id 3);
  (* idempotent *)
  Alcotest.(check int) "rejoined" 3 (Mem.live_hosts store);
  Alcotest.(check int) "value survived the outage" 7 (Mem.read r ~by:(id 0));
  Mem.note_restart store (id 0);
  (* no-op: never crashed *)
  Alcotest.(check int) "live host restart is a no-op" 3 (Mem.live_hosts store);
  (* fail_host_memory is not healed by a crash/restart cycle: with two
     of four memories omission-faulty, a write reaches no majority of
     healthy replicas and drops. *)
  Mem.fail_host_memory store (id 0);
  Mem.fail_host_memory store (id 1);
  Mem.note_crash store (id 1);
  Mem.note_restart store (id 1);
  Alcotest.(check bool) "memory still failed after restart" true
    (Mem.host_memory_failed store (id 1));
  let dropped = Mem.dropped_writes store in
  Mem.write r ~by:(id 2) 11;
  Alcotest.(check int) "majority-faulty write drops" (dropped + 1)
    (Mem.dropped_writes store);
  Alcotest.(check int) "old value retained" 7 (Mem.peek r)

(* Replication masks a minority of memory failures: under the native
   backend, failing the one owner host silently drops every write; the
   emulated register keeps accepting them until a majority of memories
   are gone. *)
let test_emulated_masks_memory_failure () =
  let n = 4 in
  let mk backend =
    let store = Mem.create ~backend (Domain.full n) in
    let r =
      Mem.alloc store ~name:"x" ~owner:(id 0)
        ~shared_with:[ id 1; id 2; id 3 ] 5
    in
    (store, r)
  in
  let nat, rn = mk Mem.Backend.Native in
  Mem.fail_host_memory nat (id 0);
  Mem.write rn ~by:(id 1) 9;
  Alcotest.(check int) "native: owner loss drops the write" 5 (Mem.peek rn);
  Alcotest.(check int) "native: drop counted" 1 (Mem.dropped_writes nat);
  let emu, re = mk Mem.Backend.Emulated in
  Mem.fail_host_memory emu (id 0);
  Mem.write re ~by:(id 1) 9;
  Alcotest.(check int) "emulated: minority loss masked" 9 (Mem.peek re);
  Alcotest.(check int) "emulated: no drop" 0 (Mem.dropped_writes emu);
  Mem.fail_host_memory emu (id 1);
  Mem.write re ~by:(id 2) 11;
  Alcotest.(check int) "emulated: majority loss drops" 9 (Mem.peek re);
  Alcotest.(check int) "emulated: drop counted" 1 (Mem.dropped_writes emu)

let test_backend_names () =
  List.iter
    (fun (name, b) ->
      Alcotest.(check string) "name round-trips" name (Mem.Backend.name b);
      Alcotest.(check bool) "of_string round-trips" true
        (Mem.Backend.of_string name = b))
    Mem.Backend.all;
  Alcotest.(check bool) "tags distinct" true
    (Mem.Backend.tag Mem.Backend.Native <> Mem.Backend.tag Mem.Backend.Emulated);
  Alcotest.(check bool) "unknown rejected" true
    (try
       ignore (Mem.Backend.of_string "quorumless");
       false
     with Invalid_argument _ -> true)

(* Two members alternating on one register miss the one-slot access
   memo on every op (KV's ALIVE registers see exactly this), so every
   read takes the membership search: it must allocate nothing, both
   below and above the 8-member binary-search cutoff. *)
let test_memo_miss_allocation () =
  List.iter
    (fun n ->
      let store = Mem.create (Domain.full n) in
      let r =
        Mem.alloc store ~name:"x" ~owner:(id 0)
          ~shared_with:(List.init (n - 1) (fun i -> id (i + 1)))
          0
      in
      let a = id 1 and b = id (n - 1) in
      ignore (Mem.read r ~by:a);
      let before = Gc.minor_words () in
      for k = 1 to 10_000 do
        ignore (Sys.opaque_identity (Mem.read r ~by:(if k land 1 = 0 then a else b)))
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "10k memo-missing reads, %d members: minor words" n)
        0.0 words)
    [ 3; 16 ]

(* --- validated sharing sets (Mem.group / Mem.alloc_in) --- *)

let test_group_forbidden_set () =
  let store = Mem.create (Domain.uniform_of_graph (B.path 4)) in
  Alcotest.check_raises "alloc names the register"
    (Invalid_argument
       "Mem.alloc \"bad\": sharing set not permitted by the shared-memory \
        domain")
    (fun () ->
      ignore (Mem.alloc store ~name:"bad" ~owner:(id 0) ~shared_with:[ id 3 ] 0));
  Alcotest.(check bool) "group rejects" true
    (match Mem.group store ~owner:(id 0) ~shared_with:[ id 3 ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "nothing allocated" 0 (Mem.reg_count store)

let test_group_matches_alloc () =
  let store = Mem.create (Domain.uniform_of_graph (B.ring 6)) in
  (* Unsorted, repeated, owner included: the group normalizes it as
     [alloc] does. *)
  let shared_with = [ id 2; id 0; id 2; id 1 ] in
  let g = Mem.group store ~owner:(id 1) ~shared_with in
  let a = Mem.alloc_in g ~name:"a" 0 in
  let b = Mem.alloc_in g ~name:"b" 0 in
  let c = Mem.alloc store ~name:"c" ~owner:(id 1) ~shared_with 0 in
  Alcotest.(check int) "reg count counts each" 3 (Mem.reg_count store);
  Alcotest.(check (list int)) "group members" [ 0; 1; 2 ]
    (List.map Id.to_int (Mem.group_members g));
  List.iter
    (fun r ->
      Alcotest.(check int) "owner" (Id.to_int (Mem.owner c))
        (Id.to_int (Mem.owner r));
      Alcotest.(check (list int)) "members"
        (List.map Id.to_int (Mem.members c))
        (List.map Id.to_int (Mem.members r)))
    [ a; b ];
  Alcotest.(check string) "own name" "b" (Mem.name b);
  (* Values and access memos are per register. *)
  Mem.write a ~by:(id 0) 7;
  Alcotest.(check int) "a written" 7 (Mem.read a ~by:(id 2));
  Alcotest.(check int) "b untouched" 0 (Mem.read b ~by:(id 1));
  List.iter
    (fun r ->
      Alcotest.check_raises "read by non-member"
        (Mem.Access_violation { reg = Mem.name r; by = id 3 })
        (fun () -> ignore (Mem.read r ~by:(id 3)));
      Alcotest.check_raises "write by non-member"
        (Mem.Access_violation { reg = Mem.name r; by = id 5 })
        (fun () -> Mem.write r ~by:(id 5) 1))
    [ a; b; c ];
  (* Accounting is alloc's: the owner's ops local, everyone else's
     remote (ops so far: a by 0 and 2, b by 1). *)
  ignore (Mem.read c ~by:(id 1));
  Mem.write c ~by:(id 0) 3;
  let t = Mem.total_counters store in
  Alcotest.(check int) "local" 2 (t.Mem.reads_local + t.Mem.writes_local);
  Alcotest.(check int) "remote" 3 (t.Mem.reads_remote + t.Mem.writes_remote)

(* Materializing a register from a group allocates its record and
   nothing else, whatever the sharing set's size: no re-sort, no
   re-validation, no member array.  The bound is the register record
   itself (eight fields and a header). *)
let test_group_alloc_cost () =
  List.iter
    (fun n ->
      let store = Mem.create (Domain.full n) in
      let g =
        Mem.group store ~owner:(id 0)
          ~shared_with:(List.init (n - 1) (fun i -> id (i + 1)))
      in
      let count = 10_000 in
      let before = Gc.minor_words () in
      for _ = 1 to count do
        ignore (Sys.opaque_identity (Mem.alloc_in g ~name:"r" 0))
      done;
      let per_reg = (Gc.minor_words () -. before) /. float_of_int count in
      Alcotest.(check bool)
        (Printf.sprintf "%.2f minor words per register, %d members (<= 9)"
           per_reg n)
        true (per_reg <= 9.0);
      Alcotest.(check int) "reg count" count (Mem.reg_count store))
    [ 3; 16 ]

(* --- the setup path: sharing-list shapes, peer groups, alloc cost --- *)

(* What [alloc] must do with any sharing list, stated without it: the
   member set is [owner :: shared_with] sorted without repeats; the
   domain permits it iff one of its sets holds it all; a member reads
   and writes, anyone else raises [Access_violation] naming the
   register; a forbidden set raises [alloc]'s [Invalid_argument]. *)
let check_alloc_shape dom ~owner shared_with =
  let n = Domain.order dom in
  let store = Mem.create dom in
  let name = "r" in
  let members =
    List.sort_uniq compare (owner :: List.map Id.to_int shared_with)
  in
  let permitted =
    List.exists
      (fun s ->
        let s = List.map Id.to_int s in
        List.for_all (fun m -> List.mem m s) members)
      (Domain.sets dom)
  in
  let label =
    Printf.sprintf "owner %d, shared_with [%s]" owner
      (String.concat ";" (List.map (fun i -> string_of_int (Id.to_int i)) shared_with))
  in
  match Mem.alloc store ~name ~owner:(id owner) ~shared_with 0 with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) (label ^ ": forbidden") false permitted;
    Alcotest.(check string) (label ^ ": message")
      "Mem.alloc \"r\": sharing set not permitted by the shared-memory domain"
      msg
  | r ->
    Alcotest.(check bool) (label ^ ": permitted") true permitted;
    Alcotest.(check (list int)) (label ^ ": members") members
      (List.map Id.to_int (Mem.members r));
    Alcotest.(check int) (label ^ ": owner") owner (Id.to_int (Mem.owner r));
    for p = 0 to n - 1 do
      if List.mem p members then begin
        Mem.write r ~by:(id p) p;
        Alcotest.(check int) (label ^ ": member reads") p (Mem.read r ~by:(id p))
      end
      else begin
        Alcotest.check_raises (label ^ ": read violation")
          (Mem.Access_violation { reg = name; by = id p })
          (fun () -> ignore (Mem.read r ~by:(id p)));
        Alcotest.check_raises (label ^ ": write violation")
          (Mem.Access_violation { reg = name; by = id p })
          (fun () -> Mem.write r ~by:(id p) 0)
      end
    done

(* The one-pass merge takes strictly ascending lists; every other shape
   goes through the sort and must come out the same. *)
let test_sharing_list_shapes () =
  let ids = List.map id in
  List.iter
    (fun dom ->
      List.iter
        (fun (owner, l) -> check_alloc_shape dom ~owner (ids l))
        [
          (0, [ 1; 2; 3; 4; 5 ]);  (* ascending, owner first *)
          (3, [ 0; 1; 2; 4; 5 ]);  (* ascending, owner inside *)
          (5, [ 0; 1; 2; 3; 4 ]);  (* ascending, owner last *)
          (2, [ 0; 1; 2; 3 ]);  (* contains the owner *)
          (2, [ 4; 0; 3; 1 ]);  (* unsorted *)
          (1, [ 0; 0; 2; 2; 5 ]);  (* duplicated *)
          (4, [ 5; 3; 1; 0 ]);  (* descending *)
          (1, [ 1; 1 ]);  (* only the owner, twice *)
          (3, []);  (* owner alone *)
          (0, [ 1; 3 ]);  (* not a neighborhood on the ring *)
          (0, [ 5; 1 ]);  (* S_0 on the ring, descending *)
          (2, [ 3; 1; 1 ]);  (* S_2 on the ring, unsorted and repeated *)
        ])
    [
      Domain.full 6;
      Domain.uniform_of_graph (B.ring 6);
      Domain.of_sets 6 [ [ 0; 1; 2; 3 ]; [ 3; 4; 5 ] ];
    ]

let prop_sharing_list_shapes =
  QCheck.Test.make ~name:"any sharing list: alloc = sorted-set oracle"
    ~count:300
    QCheck.(pair (int_bound 5) (list_of_size Gen.(0 -- 7) (int_bound 5)))
    (fun (owner, l) ->
      List.iter
        (fun dom -> check_alloc_shape dom ~owner (List.map id l))
        [ Domain.uniform_of_graph (B.ring 6); Domain.full 6 ];
      true)

(* [peer_groups] gives each owner exactly what an [alloc] with "everyone
   but me" gives, from one validation; a forbidden set raises. *)
let test_peer_groups () =
  let n = 5 in
  let store = Mem.create (Domain.full n) in
  let pids = Array.init n id in
  let groups = Mem.peer_groups store pids in
  Array.iteri
    (fun i g ->
      let r = Mem.alloc_in g ~name:"g" 0 in
      let others = List.filter (fun q -> Id.to_int q <> i) (Id.all n) in
      let a = Mem.alloc store ~name:"a" ~owner:(id i) ~shared_with:others 0 in
      Alcotest.(check int) "owner" i (Id.to_int (Mem.owner r));
      Alcotest.(check (list int)) "members"
        (List.map Id.to_int (Mem.members a))
        (List.map Id.to_int (Mem.members r)))
    groups;
  Alcotest.(check int) "empty" 0 (Array.length (Mem.peer_groups store [||]));
  let ring = Mem.create (Domain.uniform_of_graph (B.ring 5)) in
  Alcotest.(check bool) "forbidden peer set" true
    (match Mem.peer_groups ring pids with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A register allocated on a validated-per-call sharing set costs the
   member list's merge, the member array, the group and the register —
   not a sort, a second sort in the domain check and a copy. *)
let test_alloc_cost () =
  let store = Mem.create (Domain.full 6) in
  let owner = id 2 in
  let shared_with = List.filter (fun q -> not (Id.equal q owner)) (Id.all 6) in
  ignore (Mem.alloc store ~name:"warm" ~owner ~shared_with 0);
  let count = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to count do
    ignore (Sys.opaque_identity (Mem.alloc store ~name:"r" ~owner ~shared_with 0))
  done;
  let per_alloc = (Gc.minor_words () -. before) /. float_of_int count in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per alloc on Domain.full 6 (<= 64)"
       per_alloc)
    true (per_alloc <= 64.0)

let prop_last_write_wins =
  QCheck.Test.make ~name:"register holds last written value" ~count:100
    QCheck.(list (pair (int_range 0 1) int))
    (fun writes ->
      let store = Mem.create (Domain.full 2) in
      let r = Mem.alloc store ~name:"x" ~owner:(id 0) ~shared_with:[ id 1 ] 0 in
      List.iter (fun (p, v) -> Mem.write r ~by:(id p) v) writes;
      let expected =
        match List.rev writes with [] -> 0 | (_, v) :: _ -> v
      in
      Mem.read r ~by:(id 0) = expected)

let () =
  Alcotest.run "mm_mem"
    [
      ( "store",
        [
          Alcotest.test_case "alloc and rw" `Quick test_alloc_and_rw;
          Alcotest.test_case "domain enforcement" `Quick test_domain_enforcement;
          Alcotest.test_case "access violation" `Quick test_access_violation;
          Alcotest.test_case "local/remote accounting" `Quick
            test_local_remote_accounting;
          Alcotest.test_case "window accounting" `Quick test_window_accounting;
          Alcotest.test_case "peek" `Quick test_peek_no_accounting;
          Alcotest.test_case "counters arithmetic" `Quick test_counters_arith;
          Alcotest.test_case "memory failure" `Quick test_memory_failure;
          Alcotest.test_case "memo-miss reads allocate nothing" `Quick
            test_memo_miss_allocation;
          QCheck_alcotest.to_alcotest prop_last_write_wins;
        ] );
      ( "group",
        [
          Alcotest.test_case "forbidden set" `Quick test_group_forbidden_set;
          Alcotest.test_case "registers match alloc's" `Quick
            test_group_matches_alloc;
          Alcotest.test_case "allocation bound" `Quick test_group_alloc_cost;
          Alcotest.test_case "sharing-list shapes" `Quick
            test_sharing_list_shapes;
          QCheck_alcotest.to_alcotest prop_sharing_list_shapes;
          Alcotest.test_case "peer groups" `Quick test_peer_groups;
          Alcotest.test_case "alloc bound (full 6)" `Quick test_alloc_cost;
        ] );
      ( "backend",
        [
          Alcotest.test_case "native differential" `Quick
            test_native_differential;
          Alcotest.test_case "emulated accounting" `Quick
            test_emulated_accounting;
          Alcotest.test_case "restart rejoins quorum" `Quick test_note_restart;
          Alcotest.test_case "emulated unavailable" `Quick
            test_emulated_unavailable;
          Alcotest.test_case "emulated masks memory failure" `Quick
            test_emulated_masks_memory_failure;
          Alcotest.test_case "backend names" `Quick test_backend_names;
        ] );
    ]
