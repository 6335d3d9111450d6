(* A replicated key-value store on the m&m model.

   Each replica issues commands into a shared log (multi-decree
   Disk-Paxos over RDMA-style registers + Ω from register heartbeats +
   message-based command forwarding and Learn notifications), then every
   replica applies the SAME log prefix to its local hash table — classic
   state machine replication, the design of the paper's RDMA-consensus
   successors (DARE, APUS, Mu).

   We kill the initial leader halfway through and show that (a) every
   surviving replica ends with an identical store, and (b) commands
   issued by followers survived the failover because they keep being
   re-forwarded to whoever leads now.

   Run with:  dune exec examples/replicated_kv.exe *)

module Log = Mm_smr.Replicated_log
module Net = Mm_net.Network
module Mem = Mm_mem.Mem

(* Commands are (issuer, seq); give each a deterministic meaning so the
   log maps to key-value writes: replica i's k-th command sets key
   "k<i>.<k>" to a value derived from both. *)
let key_of (c : Log.command) = Printf.sprintf "key-%d.%d" c.Log.issuer c.Log.seq
let value_of (c : Log.command) = (c.Log.issuer * 100) + c.Log.seq

let () =
  let n = 4 and commands_per_proc = 3 in
  Printf.printf
    "replicated KV store: %d replicas, %d commands each, leader p0 \
     crashes at step 400\n\n"
    n commands_per_proc;
  let o =
    Log.run ~seed:2026 ~n ~commands_per_proc ~crashes:[ (0, 400) ]
      ~max_steps:3_000_000 ()
  in
  Printf.printf "run: %s after %d steps, %d slots, %d messages, %d mem ops\n"
    (Format.asprintf "%a" Mm_sim.Engine.pp_stop_reason o.Log.run.reason)
    o.Log.run.steps o.Log.slots_used o.Log.run.net.Net.sent
    (Mem.total_ops o.Log.run.mem);
  Printf.printf "log consistent across replicas: %b\n" o.Log.consistent;
  Printf.printf "all correct commands committed:  %b\n\n" o.Log.all_committed;

  (* Materialize each replica's KV store from its applied log. *)
  let stores =
    Array.map
      (fun log ->
        let kv = Hashtbl.create 16 in
        List.iter (fun (_slot, c) -> Hashtbl.replace kv (key_of c) (value_of c)) log;
        kv)
      o.Log.logs
  in
  let dump pi =
    let kv = stores.(pi) in
    let entries =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) kv [] |> List.sort compare
    in
    Printf.printf "  replica %d%s: %s\n" pi
      (if o.Log.run.crashed.(pi) then " (crashed)" else "")
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) entries))
  in
  for pi = 0 to n - 1 do
    dump pi
  done;
  let reference =
    let kv = stores.(1) in
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) kv [] |> List.sort compare
  in
  let all_equal =
    List.for_all
      (fun pi ->
        o.Log.run.crashed.(pi)
        || List.sort compare
             (Hashtbl.fold (fun k v acc -> (k, v) :: acc) stores.(pi) [])
           = reference)
      (List.init n Fun.id)
  in
  Printf.printf "\nall surviving replicas converged to the same store: %b\n"
    all_equal;
  Printf.printf
    "(note the division of labor: ballots and recovery run over shared \n\
     registers — a new leader READS the old leader's slot registers \
     instead\n\
     of re-running message rounds — while command submission and apply \n\
     notifications ride on messages so idle replicas sleep on their \
     mailboxes.)\n"
