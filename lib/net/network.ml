module Id = Mm_core.Id
module Rng = Mm_rng.Rng
module Minheap = Mm_core.Minheap

type kind =
  | Reliable
  | Fair_lossy of float

type delay =
  | Immediate
  | Fixed of int
  | Uniform of int * int

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  in_flight : int;
}

type in_flight = {
  msg : Message.t;
  due : int;
}

type event =
  | Drop of { src : Id.t; dst : Id.t }
  | Deliver of { src : Id.t; dst : Id.t }

let no_wake = max_int

(* [l_wake] of a link parked by a partition: below every due, so [arm]
   never beats it and no heap entry matches it. *)
let parked = -1

(* All mutable state of one directed link [src * n + dst]: its in-flight
   queue (descending in (due, uid): newest first, so a send onto a held
   link does not walk its backlog), the key of its earliest live heap
   entry (or [no_wake]), and the degradation knobs.  Everything a link
   needs lives in this one record so the sparse index can materialize a
   link on first use and recycle it once it is idle again. *)
type link = {
  mutable l_idx : int;
  mutable l_queue : in_flight list;
  mutable l_wake : int;
  mutable l_drop : float;
  mutable l_delay : int;
}

(* How link records are found by index:

   - [Dense]: one slot per directed pair, O(n²) words at create, O(1)
     lookup — right for the small-n sweep hot path.  A slot holds
     [null_link] until its first write materializes the record, so a
     trial pays only for the links it uses.
   - [Sparse]: links materialize on first use and are recycled (returned
     to [pool]) once idle, so storage is O(links in use), not O(n²) — at
     n=1000 a dense network is ~5M words before a single message moves.
     Thm 5.1's eventual silence means steady-state "in use" is small.

   A recycled link's stale heap entries are skipped on pop exactly like a
   dense link's superseded wake-ups (missing from the table reads as
   [no_wake] + empty queue, which is precisely the recycled state), so
   delivery order is identical between the two indexings. *)
type index =
  | Dense of link array
  | Sparse of {
      tbl : (int, link) Hashtbl.t;
      mutable pool : link list;
    }

(* Delivery is driven by a global min-heap of (due, link) wake-ups, so a
   tick costs O(messages actually due) instead of O(active links +
   in-flight).  Each entry is packed into one int, [due * n² + link], which
   orders entries by due then by link index — a fixed, deterministic
   tie-break for simultaneous deliveries on different links.  Per link,
   [l_wake] holds the key of its earliest live heap entry (or [no_wake]);
   entries whose due no longer matches are stale and skipped on pop, which
   keeps the heap lazily deduplicated without a decrease-key operation.

   A link a partition holds is not polled: tick parks it (off the heap,
   wake [parked]) until [heal], the only event that can release it. *)
type t = {
  n : int;
  slots : int;  (* n², the packed-key stride *)
  (* Largest due a heap key can carry before [due * n² + idx] would wrap
     past [max_int] and corrupt delivery order; [arm] rejects anything
     beyond it loudly. *)
  max_safe_due : int;
  net_kind : kind;
  net_delay : delay;
  rng : Rng.t;
  index : index;
  heap : Minheap.t;
  (* The smallest due among the heap's keys, stale ones included, or
     [no_wake]: a tick before it pops nothing.  Lowered by [arm], reset
     at the end of [tick] — the only places the heap changes — and
     dropped to [min_int] by a [heal] that has parked links to release. *)
  mutable wake : int;
  mailboxes : (Id.t * Message.payload) Queue.t array;
  (* Partition epochs: each [partition] call contributes one group-of
     array; a link is held iff some epoch separates its endpoints.  This
     keeps partitions O(n) to impose instead of an O(n²) held-flag
     sweep, and [heal] is dropping the list.  Cumulative across calls,
     like the flag version was. *)
  mutable parts : int array list;
  (* Links parked by a partition, and whether a [heal] since the last
     tick released them: the next tick re-arms them before popping. *)
  mutable parked_links : link list;
  mutable released : bool;
  mutable block_fn : (now:int -> src:Id.t -> dst:Id.t -> bool) option;
  mutable observer : (event -> unit) option;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable in_flight_count : int;
  mutable next_uid : int;
}

let validate_delay = function
  | Immediate -> ()
  | Fixed d -> if d < 1 then invalid_arg "Network: delay must be >= 1"
  | Uniform (lo, hi) ->
    if lo < 1 || hi < lo then invalid_arg "Network: bad uniform delay bounds"

(* Written so that NaN fails the test too. *)
let valid_drop p = p >= 0.0 && p < 1.0

let validate_kind = function
  | Reliable -> ()
  | Fair_lossy p ->
    if not (valid_drop p) then
      invalid_arg "Network.create: drop probability must be in [0, 1)"

let fresh_link idx =
  { l_idx = idx; l_queue = []; l_wake = no_wake; l_drop = 0.0; l_delay = 0 }

(* Sentinel for "no record": reads as an idle link (empty queue, wake
   [no_wake], no degradation) and is never mutated — callers that might
   write first materialize a real record with [get_link].  Returning it
   instead of an option keeps the per-send / per-pop lookups
   allocation-free on the hot path. *)
let null_link =
  { l_idx = -1; l_queue = []; l_wake = no_wake; l_drop = 0.0; l_delay = 0 }

(* Dense indexing is the small-n default (sweeps replay the same few
   links millions of times; array indexing beats hashing).  Above the
   cutoff the O(n²) create cost starts to dominate whole scenarios, so
   big instances go sparse.  Tests force a mode via [set_default_index]
   to compare the two head-to-head on the same scenario. *)
let dense_cutoff = 64

let default_index : [ `Dense | `Sparse ] option Atomic.t = Atomic.make None
let set_default_index v = Atomic.set default_index v

let create ~rng ~n ~kind ?(delay = Uniform (1, 4)) ?index () =
  if n < 1 then invalid_arg "Network.create: need n >= 1";
  validate_kind kind;
  validate_delay delay;
  let mode =
    match index with
    | Some m -> m
    | None -> (
      match Atomic.get default_index with
      | Some m -> m
      | None -> if n <= dense_cutoff then `Dense else `Sparse)
  in
  let slots = n * n in
  {
    n;
    slots;
    max_safe_due = (max_int - (slots - 1)) / slots;
    net_kind = kind;
    net_delay = delay;
    rng;
    index =
      (match mode with
      | `Dense -> Dense (Array.make slots null_link)
      | `Sparse -> Sparse { tbl = Hashtbl.create 256; pool = [] });
    heap = Minheap.create ();
    wake = no_wake;
    mailboxes = Array.init n (fun _ -> Queue.create ());
    parts = [];
    parked_links = [];
    released = false;
    block_fn = None;
    observer = None;
    sent = 0;
    delivered = 0;
    dropped = 0;
    in_flight_count = 0;
    next_uid = 0;
  }

let order t = t.n
let kind t = t.net_kind

let notify t ev =
  match t.observer with
  | None -> ()
  | Some f -> f ev

(* --- link index --- *)

let peek_link t idx =
  match t.index with
  | Dense links -> Array.unsafe_get links idx
  | Sparse s -> ( try Hashtbl.find s.tbl idx with Not_found -> null_link)

(* Look up link [idx], materializing it in sparse mode. *)
let get_link t idx =
  match t.index with
  | Dense links ->
    let l = links.(idx) in
    if l != null_link then l
    else begin
      let l = fresh_link idx in
      links.(idx) <- l;
      l
    end
  | Sparse s -> (
    try Hashtbl.find s.tbl idx
    with Not_found ->
      let l =
        match s.pool with
        | l :: rest ->
          s.pool <- rest;
          l.l_idx <- idx;
          l
        | [] -> fresh_link idx
      in
      Hashtbl.add s.tbl idx l;
      l)

(* An idle link (nothing queued, no wake-up armed, no degradation) holds
   no information: drop it from the sparse table so live storage tracks
   links in use.  Stale heap entries naming it are skipped on pop. *)
let maybe_recycle t l =
  match t.index with
  | Dense _ -> ()
  | Sparse s ->
    if l.l_queue == [] && l.l_wake = no_wake && l.l_drop = 0.0 && l.l_delay = 0
    then begin
      Hashtbl.remove s.tbl l.l_idx;
      s.pool <- l :: s.pool
    end

(* Arm the wake-up for link [l] at [due] unless an earlier one is
   already pending. *)
let arm t l ~due =
  if due > t.max_safe_due then
    invalid_arg
      (Printf.sprintf
         "Network: step %d overflows the packed heap key (due * n^2 + link, \
          max safe step %d at n = %d)"
         due t.max_safe_due t.n);
  if due < l.l_wake then begin
    Minheap.push t.heap ((due * t.slots) + l.l_idx);
    l.l_wake <- due;
    if due < t.wake then t.wake <- due
  end

let draw_delay t =
  match t.net_delay with
  | Immediate -> 1
  | Fixed d -> d
  | Uniform (lo, hi) -> Rng.int_in_range t.rng ~lo ~hi

(* Ordered insert keeping the queue descending in (due, uid).  [e] carries
   the largest uid yet issued, so it goes in front of the first entry due
   no later than it: equal-due entries stay FIFO once reversed, and the
   walk covers only entries due after [e] -- at most a delay window's
   worth, however many messages a held link has piled up behind it. *)
let rec insert_by_due e = function
  | x :: tl when x.due > e.due -> x :: insert_by_due e tl
  | rest -> e :: rest

let send t ~now ~src ~dst payload =
  let si = Id.to_int src and di = Id.to_int dst in
  if si >= t.n || di >= t.n then invalid_arg "Network.send: id out of range";
  t.sent <- t.sent + 1;
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  if Id.equal src dst then begin
    (* Local delivery: a process handing itself a message involves no
       link, hence no loss and no delay. *)
    Queue.add (src, payload) t.mailboxes.(si);
    t.delivered <- t.delivered + 1;
    notify t (Deliver { src; dst })
  end
  else begin
    let idx = (si * t.n) + di in
    (* Peek only: a dropped send must not materialize a sparse link. *)
    let existing = peek_link t idx in
    let extra_drop = existing.l_drop in
    let drop =
      (match t.net_kind with
      | Reliable -> false
      | Fair_lossy p -> Rng.float t.rng < p)
      || (extra_drop > 0.0 && Rng.float t.rng < extra_drop)
    in
    if drop then begin
      t.dropped <- t.dropped + 1;
      notify t (Drop { src; dst })
    end
    else begin
      let l = if existing != null_link then existing else get_link t idx in
      let msg = { Message.src; dst; payload; sent_at = now; uid } in
      let due = now + draw_delay t + l.l_delay in
      l.l_queue <- insert_by_due { msg; due } l.l_queue;
      t.in_flight_count <- t.in_flight_count + 1;
      arm t l ~due
    end
  end

(* Enqueue [ready], a descending run of due entries, into mailbox [di]
   oldest first: recurse, then enqueue.  The depth is the number of
   messages delivered at once (a whole backlog when a partition heals). *)
let rec deliver_ready t di = function
  | [] -> ()
  | e :: tl ->
    deliver_ready t di tl;
    Queue.add (e.msg.Message.src, e.msg.Message.payload) t.mailboxes.(di);
    t.delivered <- t.delivered + 1;
    t.in_flight_count <- t.in_flight_count - 1;
    notify t (Deliver { src = e.msg.Message.src; dst = e.msg.Message.dst })

(* The queue is descending, so its due entries are a suffix: copy the
   entries still in transit (at most a delay window) and deliver the rest. *)
let rec split_due t ~now ~di = function
  | e :: tl when e.due > now -> e :: split_due t ~now ~di tl
  | ready ->
    deliver_ready t di ready;
    []

let rec last_due = function
  | [ e ] -> e.due
  | _ :: tl -> last_due tl
  | [] -> no_wake

(* Deliver link [l]'s due messages into the destination mailbox, in
   ascending (due, uid) order. *)
let deliver_due t ~now ~l ~di =
  l.l_queue <- split_due t ~now ~di l.l_queue;
  (* Re-arm for the link's next pending message, if any: the queue's
     last entry is its earliest. *)
  match l.l_queue with
  | [] -> maybe_recycle t l
  | q -> arm t l ~due:(last_due q)

(* A link is held iff some partition epoch separates its endpoints.  A
   plain loop, not [List.exists]: tick runs it on every due link, and the
   closure [List.exists] needs would allocate on each call. *)
let rec separated si di = function
  | [] -> false
  | group_of :: rest ->
    let gs = group_of.(si) and gd = group_of.(di) in
    (gs >= 0 && gd >= 0 && gs <> gd) || separated si di rest

(* Re-arm the links a [heal] released at [now].  For a caller that ticks
   every step while traffic is held (the engine does), [now] is the
   previous tick's step + 1: the key a held link re-armed on every tick
   would carry, so delivery order is the same as under polling. *)
let release_parked t ~now =
  t.released <- false;
  let ls = t.parked_links in
  t.parked_links <- [];
  List.iter
    (fun l ->
      l.l_wake <- no_wake;
      arm t l ~due:now)
    ls

let tick t ~now =
  if t.released then release_parked t ~now;
  let slots = t.slots in
  while
    (not (Minheap.is_empty t.heap)) && Minheap.min_key t.heap / slots <= now
  do
    let key = Minheap.pop t.heap in
    let due = key / slots and idx = key mod slots in
    (* Live entry?  Stale duplicates (superseded by an earlier wake-up
       that already serviced the link, or naming a recycled link, whose
       sentinel wake [no_wake] can never equal a packable due) are
       skipped. *)
    let l = peek_link t idx in
    if l.l_wake = due then begin
      l.l_wake <- no_wake;
      let si = idx / t.n and di = idx mod t.n in
      if separated si di t.parts then begin
        (* Held messages stay queued (No-loss).  Partitions only add
           holds, so nothing changes for this link before [heal]: park
           it off the heap until then. *)
        l.l_wake <- parked;
        t.parked_links <- l :: t.parked_links
      end
      else if
        match t.block_fn with
        | None -> false
        | Some f -> f ~now ~src:(Id.of_int si) ~dst:(Id.of_int di)
      then
        (* [block_fn] depends on the step: poll again next tick. *)
        arm t l ~due:(now + 1)
      else deliver_due t ~now ~l ~di
    end
  done;
  t.wake <-
    (if Minheap.is_empty t.heap then no_wake
     else Minheap.min_key t.heap / slots)

let next_wake t = t.wake

let drain t p =
  let box = t.mailboxes.(Id.to_int p) in
  let acc = ref [] in
  while not (Queue.is_empty box) do
    acc := Queue.pop box :: !acc
  done;
  List.rev !acc

let peek_count t p = Queue.length t.mailboxes.(Id.to_int p)
let set_block_fn t f = t.block_fn <- Some f

(* --- structured adversary: partitions and link degradation --- *)

(* A link is held iff its endpoints appear in two *different* listed
   groups; processes not listed in any group keep all their links.  Held
   links re-enter the normal delivery path on [heal]: parking keeps every
   queued message, so No-loss is preserved. *)
let partition t groups =
  let group_of = Array.make t.n (-1) in
  List.iteri
    (fun g members ->
      List.iter
        (fun p ->
          let i = Id.to_int p in
          if i < 0 || i >= t.n then invalid_arg "Network.partition: id out of range";
          if group_of.(i) >= 0 then
            invalid_arg "Network.partition: process in two groups";
          group_of.(i) <- g)
        members)
    groups;
  t.parts <- group_of :: t.parts

let heal t =
  t.parts <- [];
  if t.parked_links != [] then begin
    t.released <- true;
    t.wake <- min_int
  end

let degrade t ~src ~dst ?(drop = 0.0) ?(extra_delay = 0) () =
  let si = Id.to_int src and di = Id.to_int dst in
  if si < 0 || si >= t.n || di < 0 || di >= t.n then
    invalid_arg "Network.degrade: id out of range";
  if not (valid_drop drop) then
    invalid_arg "Network.degrade: drop probability must be in [0, 1)";
  if extra_delay < 0 then invalid_arg "Network.degrade: negative extra delay";
  let l = get_link t ((si * t.n) + di) in
  l.l_drop <- drop;
  l.l_delay <- extra_delay

let restore t =
  match t.index with
  | Dense links ->
    Array.iter
      (fun l ->
        if l != null_link then begin
          l.l_drop <- 0.0;
          l.l_delay <- 0
        end)
      links
  | Sparse s ->
    (* Clearing a degradation can leave a link idle; recycle those, but
       collect first — the table must not shrink mid-iteration. *)
    let idle = ref [] in
    Hashtbl.iter
      (fun _ l ->
        l.l_drop <- 0.0;
        l.l_delay <- 0;
        if l.l_queue == [] && l.l_wake = no_wake then idle := l :: !idle)
      s.tbl;
    List.iter (fun l -> maybe_recycle t l) !idle

let set_observer t f = t.observer <- Some f

let account t ~sent ~delivered =
  if sent < 0 || delivered < 0 then invalid_arg "Network.account: negative";
  t.sent <- t.sent + sent;
  t.delivered <- t.delivered + delivered

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    in_flight = t.in_flight_count;
  }

let sent_count t = t.sent
let snapshot = stats

let diff_since t (s0 : stats) =
  let s1 = stats t in
  {
    sent = s1.sent - s0.sent;
    delivered = s1.delivered - s0.delivered;
    dropped = s1.dropped - s0.dropped;
    in_flight = s1.in_flight;
  }
