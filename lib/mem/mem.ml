module Id = Mm_core.Id
module Domain_ = Mm_core.Domain

module Backend = struct
  type t =
    | Native
    | Emulated

  let all = [ ("native", Native); ("emulated", Emulated) ]
  let name = function Native -> "native" | Emulated -> "emulated"

  let of_string s =
    match List.assoc_opt s all with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "Mem.Backend.of_string: %S" s)

  let tag = function Native -> 0 | Emulated -> 1
  let pp fmt b = Format.pp_print_string fmt (name b)
end

(* One emulated register op is a full two-phase ABD round started by the
   invoker: each phase broadcasts to all n replica hosts and collects the
   [live] replies that can still arrive. *)
let emulated_round_msgs ~n ~live = 2 * (n + live)

type counters = {
  reads_local : int;
  reads_remote : int;
  writes_local : int;
  writes_remote : int;
}

let zero_counters =
  { reads_local = 0; reads_remote = 0; writes_local = 0; writes_remote = 0 }

let add_counters a b =
  {
    reads_local = a.reads_local + b.reads_local;
    reads_remote = a.reads_remote + b.reads_remote;
    writes_local = a.writes_local + b.writes_local;
    writes_remote = a.writes_remote + b.writes_remote;
  }

let sub_counters a b =
  {
    reads_local = a.reads_local - b.reads_local;
    reads_remote = a.reads_remote - b.reads_remote;
    writes_local = a.writes_local - b.writes_local;
    writes_remote = a.writes_remote - b.writes_remote;
  }

let total_ops c =
  c.reads_local + c.reads_remote + c.writes_local + c.writes_remote

let pp_counters fmt c =
  Format.fprintf fmt "rl=%d rr=%d wl=%d wr=%d" c.reads_local c.reads_remote
    c.writes_local c.writes_remote

(* Mutable per-process tallies, shared by every register of a store. *)
type tallies = {
  mutable t_reads_local : int;
  mutable t_reads_remote : int;
  mutable t_writes_local : int;
  mutable t_writes_remote : int;
}

type store = {
  dom : Domain_.t;
  backend : Backend.t;
  per_proc : tallies array;
  mutable regs : int;
  failed_hosts : bool array;
  crashed_hosts : bool array;
  mutable dropped : int;
  (* Replica availability, maintained for both backends but consulted
     only by [Emulated]: [live] hosts have not crashed, [healthy] hosts
     have neither crashed nor had their memory failed. *)
  mutable live : int;
  mutable healthy : int;
  mutable blocked : int;
  mutable emu_msgs : int;
  mutable emu_min_live : int;
  mutable transport : sent:int -> delivered:int -> unit;
}

type 'a reg = {
  reg_name : string;
  reg_owner : Id.t;
  (* Sharing-set membership as the sorted member ids themselves — the
     register's graph neighborhood, O(degree) words.  The old n-sized
     [allowed] bool array made a G_SM register family cost O(n·degree)
     just to exist, which is what capped instances at toy sizes. *)
  allowed : int array;
  (* One-slot access memo: the id that last passed [check].  Membership
     is fixed at alloc, so a hit is sound forever; repeated ops by the
     same process — the overwhelmingly common access pattern — pay one
     compare instead of a scan. *)
  mutable last_ok : int;
  member_list : Id.t list;
  home : store;
  tally : tallies array;
  mutable value : 'a;
}

exception Access_violation of { reg : string; by : Id.t }

exception
  Unavailable of { reg : string; by : Id.t; live : int; order : int }

let no_transport ~sent:_ ~delivered:_ = ()

let create ?(backend = Backend.Native) dom =
  let n = Domain_.order dom in
  {
    dom;
    backend;
    per_proc =
      Array.init (max n 1) (fun _ ->
          {
            t_reads_local = 0;
            t_reads_remote = 0;
            t_writes_local = 0;
            t_writes_remote = 0;
          });
    regs = 0;
    failed_hosts = Array.make (max n 1) false;
    crashed_hosts = Array.make (max n 1) false;
    dropped = 0;
    live = n;
    healthy = n;
    blocked = 0;
    emu_msgs = 0;
    emu_min_live = n;
    transport = no_transport;
  }

let backend s = s.backend
let set_transport s f = s.transport <- f

let fail_host_memory s p =
  let i = Id.to_int p in
  if not s.failed_hosts.(i) then begin
    s.failed_hosts.(i) <- true;
    if not s.crashed_hosts.(i) then s.healthy <- s.healthy - 1
  end

let host_memory_failed s p = s.failed_hosts.(Id.to_int p)

let note_crash s p =
  let i = Id.to_int p in
  if not s.crashed_hosts.(i) then begin
    s.crashed_hosts.(i) <- true;
    s.live <- s.live - 1;
    if not s.failed_hosts.(i) then s.healthy <- s.healthy - 1
  end

(* Crash-recovery: the host rejoins the replica set.  Register values
   were never lost — native registers survive their owner's crash by
   assumption (§3), and the emulated backend keeps every value at the
   surviving majority — so rejoining is pure availability bookkeeping.
   A memory failure, by contrast, is permanent: restarting the process
   does not heal its host's omission-faulty registers. *)
let note_restart s p =
  let i = Id.to_int p in
  if s.crashed_hosts.(i) then begin
    s.crashed_hosts.(i) <- false;
    s.live <- s.live + 1;
    if not s.failed_hosts.(i) then s.healthy <- s.healthy + 1
  end

let dropped_writes s = s.dropped
let blocked_ops s = s.blocked
let emulated_msgs s = s.emu_msgs
let emulated_min_live s = s.emu_min_live
let live_hosts s = s.live

let domain s = s.dom

(* A sharing set sorted, deduplicated and checked against the domain
   once.  Every register allocated from it points at the same [allowed]
   array and [members] list, so materializing one costs the register
   record and nothing else. *)
type group = {
  g_home : store;
  g_owner : Id.t;
  g_allowed : int array;
  g_members : Id.t list;
}

(* [owner :: shared_with] sorted and without repeats, in one pass when
   [shared_with] is strictly ascending — every caller's is (a filter over
   [Id.all n], a member array, a graph neighborhood).  The owner is
   merged in where it belongs and the tail above it is shared, not
   copied; a list that is not strictly ascending raises [Exit] and falls
   back to a sort. *)
let rec ascending_from x = function
  | [] -> true
  | y :: rest -> Id.to_int x < Id.to_int y && ascending_from y rest

let rec merge_owner owner prev = function
  | [] -> [ owner ]
  | x :: rest as l ->
    let xi = Id.to_int x in
    if xi <= prev then raise_notrace Exit
    else if xi < Id.to_int owner then x :: merge_owner owner xi rest
    else if not (ascending_from x rest) then raise_notrace Exit
    else if xi = Id.to_int owner then l
    else owner :: l

let members_of ~owner shared_with =
  match merge_owner owner (-1) shared_with with
  | members -> members
  | exception Exit -> List.sort_uniq Id.compare (owner :: shared_with)

exception Forbidden

let validate s ~owner ~shared_with =
  let members = members_of ~owner shared_with in
  if not (Domain_.can_share s.dom members) then raise_notrace Forbidden;
  {
    g_home = s;
    g_owner = owner;
    g_allowed = Array.of_list (members :> int list);
    g_members = members;
  }

let group s ~owner ~shared_with =
  match validate s ~owner ~shared_with with
  | g -> g
  | exception Forbidden ->
    invalid_arg
      "Mem.group: sharing set not permitted by the shared-memory domain"

(* Every owner's sharing set is the whole of [pids], so one validation
   serves them all; the groups differ only in their owner. *)
let peer_groups s pids =
  if Array.length pids = 0 then [||]
  else
    let g = group s ~owner:pids.(0) ~shared_with:(Array.to_list pids) in
    Array.map (fun owner -> { g with g_owner = owner }) pids

let group_members g = g.g_members

let alloc_in g ~name init =
  let s = g.g_home in
  s.regs <- s.regs + 1;
  {
    reg_name = name;
    reg_owner = g.g_owner;
    allowed = g.g_allowed;
    last_ok = -1;
    member_list = g.g_members;
    home = s;
    tally = s.per_proc;
    value = init;
  }

let alloc s ~name ~owner ~shared_with init =
  match validate s ~owner ~shared_with with
  | g -> alloc_in g ~name init
  | exception Forbidden ->
    invalid_arg
      (Printf.sprintf
         "Mem.alloc %S: sharing set not permitted by the shared-memory domain"
         name)

(* Membership of [i] in the sorted member ids [a]: a short linear scan
   (registers are nearly always small neighborhoods, and the scan is
   branch-predictable and allocation-free) narrowed by binary search
   above 8 members.  Top-level functions with tail calls only — no
   closures over [a] and [i], no ref cells — so a memo miss allocates
   nothing.  No bound on [i] needed: anything absent is a violation. *)
let rec scan (a : int array) (i : int) j hi =
  j < hi
  &&
  let v = Array.unsafe_get a j in
  v = i || (v < i && scan a i (j + 1) hi)

let rec is_member (a : int array) (i : int) lo hi =
  if hi - lo <= 8 then scan a i lo hi
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get a mid < i then is_member a i (mid + 1) hi
    else is_member a i lo (mid + 1)

let check r by =
  let i = Id.to_int by in
  if i <> r.last_ok then begin
    let a = r.allowed in
    if not (is_member a i 0 (Array.length a)) then
      raise (Access_violation { reg = r.reg_name; by });
    r.last_ok <- i
  end

(* One ABD round for an emulated register op.  Liveness needs a majority
   of replica hosts up (ABD's f < n/2): without one the round can never
   collect its quorum, so the op blocks — wait-freedom is lost exactly
   at the bound of arXiv 1906.00298 / 2012.10846.  The raise happens
   before any accounting so a blocked op moves no counters. *)
let emulated_round s r ~by =
  let n = Domain_.order s.dom in
  if 2 * s.live <= n then begin
    s.blocked <- s.blocked + 1;
    raise (Unavailable { reg = r.reg_name; by; live = s.live; order = n })
  end;
  if s.live < s.emu_min_live then s.emu_min_live <- s.live;
  let msgs = emulated_round_msgs ~n ~live:s.live in
  s.emu_msgs <- s.emu_msgs + msgs;
  s.transport ~sent:msgs ~delivered:msgs

let read r ~by =
  check r by;
  let t = r.tally.(Id.to_int by) in
  (match r.home.backend with
  | Backend.Native ->
    if Id.equal by r.reg_owner then t.t_reads_local <- t.t_reads_local + 1
    else t.t_reads_remote <- t.t_reads_remote + 1
  | Backend.Emulated ->
    emulated_round r.home r ~by;
    (* Every emulated op is a quorum exchange: §5.3 locality is
       forfeited, even for the nominal owner. *)
    t.t_reads_remote <- t.t_reads_remote + 1);
  r.value

let write r ~by v =
  check r by;
  let s = r.home in
  let t = r.tally.(Id.to_int by) in
  match s.backend with
  | Backend.Native ->
    if Id.equal by r.reg_owner then t.t_writes_local <- t.t_writes_local + 1
    else t.t_writes_remote <- t.t_writes_remote + 1;
    (* Omission-faulty host memory: the write op completes but the stored
       value never changes. *)
    if s.failed_hosts.(Id.to_int r.reg_owner) then s.dropped <- s.dropped + 1
    else r.value <- v
  | Backend.Emulated ->
    emulated_round s r ~by;
    t.t_writes_remote <- t.t_writes_remote + 1;
    (* Replication masks a minority of omission-faulty replicas: the
       write sticks as long as a majority of hosts are both live and
       memory-healthy (contrast Native, where failing the one owner
       host drops every write). *)
    if 2 * s.healthy <= Domain_.order s.dom then s.dropped <- s.dropped + 1
    else r.value <- v

let peek r = r.value
let name r = r.reg_name
let owner r = r.reg_owner
let members r = r.member_list
let reg_count s = s.regs

let counters_of_tally t =
  {
    reads_local = t.t_reads_local;
    reads_remote = t.t_reads_remote;
    writes_local = t.t_writes_local;
    writes_remote = t.t_writes_remote;
  }

let counters_of s p = counters_of_tally s.per_proc.(Id.to_int p)

let total_counters s =
  Array.fold_left
    (fun acc t -> add_counters acc (counters_of_tally t))
    zero_counters s.per_proc

let snapshot s = Array.map counters_of_tally s.per_proc

let diff_since s snap =
  Array.mapi (fun i c0 -> sub_counters (counters_of_tally s.per_proc.(i)) c0) snap
