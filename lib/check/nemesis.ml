module Id = Mm_core.Id
module Rng = Mm_rng.Rng
module Network = Mm_net.Network
module Engine = Mm_sim.Engine

type fault =
  | Partition of int list list
  | Degrade of { members : int list; drop : float; extra_delay : int }
  | Freeze of int list
  | Crash of (int * int) list
  | Restart of int list

type stage = {
  at : int;
  duration : int;
  fault : fault;
}

type t = stage list

let check_pids ~n ~what pids =
  if pids = [] then invalid_arg (Printf.sprintf "Nemesis: empty %s set" what);
  let seen = Array.make n false in
  List.iter
    (fun p ->
      if p < 0 || p >= n then
        invalid_arg (Printf.sprintf "Nemesis: %s pid out of range" what);
      if seen.(p) then
        invalid_arg (Printf.sprintf "Nemesis: duplicate %s pid" what);
      seen.(p) <- true)
    pids

let validate tl ~n =
  List.iter
    (fun st ->
      if st.at < 0 then invalid_arg "Nemesis: negative stage start";
      (match st.fault with
      | Crash _ -> ()
      | _ ->
        if st.duration < 1 then invalid_arg "Nemesis: stage duration must be >= 1");
      match st.fault with
      | Partition groups ->
        if List.length groups < 2 then
          invalid_arg "Nemesis: partition needs at least two groups";
        let seen = Array.make n false in
        List.iter
          (fun g ->
            if g = [] then invalid_arg "Nemesis: empty partition group";
            List.iter
              (fun p ->
                if p < 0 || p >= n then
                  invalid_arg "Nemesis: partition pid out of range";
                if seen.(p) then
                  invalid_arg "Nemesis: pid in two partition groups";
                seen.(p) <- true)
              g)
          groups
      | Degrade { members; drop; extra_delay } ->
        check_pids ~n ~what:"degrade" members;
        if drop < 0.0 || drop >= 1.0 then
          invalid_arg "Nemesis: degrade drop must be in [0, 1)";
        if extra_delay < 0 then invalid_arg "Nemesis: negative degrade delay"
      | Freeze ps -> check_pids ~n ~what:"freeze" ps
      | Crash cs ->
        check_pids ~n ~what:"crash" (List.map fst cs);
        List.iter
          (fun (_, s) ->
            if s < 0 then invalid_arg "Nemesis: negative crash step")
          cs
      | Restart ps -> check_pids ~n ~what:"restart" ps)
    tl;
  (* Restart windows of one pid must not overlap: the engine would see
     a crash scheduled while the pid is already down. *)
  let windows =
    List.concat_map
      (fun st ->
        match st.fault with
        | Restart ps -> List.map (fun p -> (p, st.at, st.at + st.duration)) ps
        | _ -> [])
      tl
  in
  List.iter
    (fun (p, a0, a1) ->
      List.iter
        (fun (q, b0, _) ->
          if p = q && a0 < b0 && b0 <= a1 then
            invalid_arg "Nemesis: overlapping restart windows for pid")
        windows)
    windows

(* --- generation --- *)

(* [k] distinct pids drawn from [candidates], in the candidates' shuffled
   order — one deterministic draw sequence per call. *)
let draw_subset rng candidates k =
  let shuffled = Rng.shuffle rng candidates in
  List.filteri (fun i _ -> i < k) shuffled

let all_pids n = List.init n (fun i -> i)

(* Draw a seed-deterministic timeline for [n] processes.  Every stage
   clears within [horizon] (the timeline always heals — monitors rely on
   a well-defined last-fault step).  [avoid] lists pids the scenario may
   crash: they are never frozen, so freeze windows stay meaningful.
   [allow_drop] gates degrade-with-loss; algorithms that never retransmit
   only get extra delay.  Crash bursts are never drawn — scenarios own
   the crash plan, and hand-authored timelines can still include them. *)
let gen rng ~n ~avoid ~horizon ~max_stages ~allow_drop =
  let horizon = max 4 horizon in
  let n_stages = 1 + Rng.int rng max_stages in
  let freeze_candidates = List.filter (fun p -> not (List.mem p avoid)) (all_pids n) in
  List.init n_stages (fun _ ->
      let at = Rng.int rng (max 1 (horizon / 2)) in
      let duration = 1 + Rng.int rng (max 1 (horizon - at - 1)) in
      let kind = Rng.int rng 4 in
      let fault =
        if n >= 2 && (kind <= 1 || (kind = 3 && freeze_candidates = [])) then begin
          (* Partition into one side vs the rest. *)
          let side = 1 + Rng.int rng (n - 1) in
          let members = draw_subset rng (all_pids n) side in
          let rest = List.filter (fun p -> not (List.mem p members)) (all_pids n) in
          Partition [ members; rest ]
        end
        else if kind = 2 || n < 2 then begin
          let k = 1 + Rng.int rng (max 1 (n / 2)) in
          let members = draw_subset rng (all_pids n) k in
          let drop = if allow_drop then 0.2 +. (0.6 *. Rng.float rng) else 0.0 in
          let extra_delay = 1 + Rng.int rng 8 in
          Degrade { members; drop; extra_delay }
        end
        else begin
          let cap = max 1 (min (List.length freeze_candidates) (n - 1)) in
          let k = 1 + Rng.int rng cap in
          Freeze (draw_subset rng freeze_candidates k)
        end
      in
      { at; duration; fault })

(* Draw a seed-deterministic rolling-restart timeline: up to [max_windows]
   crash-then-revive windows, strictly sequential (a moving cursor keeps
   them non-overlapping even across pids, so at most one process is
   transiently down at a time — under the emulated backend this keeps a
   majority alive whenever the scenario's own crash plan does).  [avoid]
   lists pids that must keep running (timely processes, scenario crash
   victims).  Windows that would outlive [horizon] are discarded, but
   their draws still happen — one deterministic draw sequence per call,
   which is the replay contract. *)
let gen_restarts rng ~n ~avoid ~horizon ~max_windows =
  let horizon = max 8 horizon in
  let candidates = List.filter (fun p -> not (List.mem p avoid)) (all_pids n) in
  if candidates = [] || max_windows < 1 then []
  else begin
    let n_windows = 1 + Rng.int rng max_windows in
    let cand = Array.of_list candidates in
    let cursor = ref 1 in
    List.filter_map
      (fun w ->
        ignore (w : int);
        let pid = cand.(Rng.int rng (Array.length cand)) in
        let gap = 1 + Rng.int rng (max 1 (horizon / 4)) in
        let duration = 1 + Rng.int rng (max 1 (horizon / 4)) in
        let at = !cursor + gap in
        cursor := at + duration + 1;
        if at + duration <= horizon then
          Some { at; duration; fault = Restart [ pid ] }
        else None)
      (List.init n_windows (fun i -> i))
  end

(* --- installation --- *)

let heal_step tl =
  List.fold_left
    (fun acc st ->
      match st.fault with
      | Crash cs -> List.fold_left (fun a (_, s) -> max a s) acc cs
      | Partition _ | Degrade _ | Freeze _ | Restart _ ->
        max acc (st.at + st.duration))
    0 tl

(* Recompute the full fault state from scratch: clear everything, then
   re-apply every stage whose window covers [now].  Overlapping stages
   thereby compose cleanly — a boundary of one never un-does another. *)
let apply_active tl ~now e =
  let n = Engine.n e in
  let net = Engine.network e in
  Network.heal net;
  Network.restore net;
  for i = 0 to n - 1 do
    Engine.thaw e (Id.of_int i)
  done;
  List.iter
    (fun st ->
      if st.at <= now && now < st.at + st.duration then
        match st.fault with
        | Partition groups ->
          Network.partition net (List.map (List.map Id.of_int) groups)
        | Degrade { members; drop; extra_delay } ->
          let is_member = Array.make n false in
          List.iter (fun p -> is_member.(p) <- true) members;
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              if src <> dst && (is_member.(src) || is_member.(dst)) then
                Network.degrade net ~src:(Id.of_int src) ~dst:(Id.of_int dst)
                  ~drop ~extra_delay ()
            done
          done
        | Freeze ps ->
          List.iter
            (fun p ->
              let pid = Id.of_int p in
              (* A pid crashed by the scenario's own plan stays dead. *)
              if Engine.status_of e pid <> Engine.Crashed then
                Engine.freeze e pid)
            ps
        | Crash _ | Restart _ -> ())
    tl

let install tl e =
  let n = Engine.n e in
  validate tl ~n;
  (* Crash bursts go through the engine's own crash scheduler so they
     compose (and conflict-check) with the scenario's crash plan. *)
  List.iter
    (fun st ->
      match st.fault with
      | Crash cs -> List.iter (fun (p, s) -> Engine.crash_at e (Id.of_int p) s) cs
      | Restart ps ->
        (* A restart window is a crash-then-revive pair, staged as one
           guarded action at [at] rather than through crash_at, so a
           window composes with the scenario's own crash plan: a pid the
           scenario already killed (or that finished first) is left
           alone.  When the crash takes, the same action hands the
           revive to the engine's restart scheduler, whose pending
           restart keeps the run alive until it lands.  The crash lands
           at the start of step at + 1 and the revive at the start of
           at + duration + 1. *)
        List.iter
          (fun pnum ->
            let pid = Id.of_int pnum in
            Engine.at e ~step:st.at (fun e ->
                match Engine.status_of e pid with
                | Engine.Ready | Engine.Unspawned ->
                  Engine.crash_now e pid;
                  if Engine.has_recovery e pid then
                    Engine.restart_at e pid (st.at + st.duration + 1)
                | Engine.Done | Engine.Crashed -> ()))
          ps
      | Partition _ | Degrade _ | Freeze _ -> ())
    tl;
  (* One staged action per distinct window boundary; each recomputes the
     whole fault state for that instant. *)
  let boundaries =
    List.concat_map
      (fun st ->
        match st.fault with
        | Crash _ | Restart _ -> []
        | Partition _ | Degrade _ | Freeze _ -> [ st.at; st.at + st.duration ])
      tl
    |> List.sort_uniq compare
  in
  List.iter
    (fun b -> Engine.at e ~step:b (fun e -> apply_active tl ~now:b e))
    boundaries

(* --- reporting --- *)

let fmt_pids ps = String.concat "," (List.map string_of_int ps)

let fault_to_string = function
  | Partition groups ->
    Printf.sprintf "partition(%s)" (String.concat "|" (List.map fmt_pids groups))
  | Degrade { members; drop; extra_delay } ->
    Printf.sprintf "degrade(%s drop=%.2f delay=+%d)" (fmt_pids members) drop
      extra_delay
  | Freeze ps -> Printf.sprintf "freeze(%s)" (fmt_pids ps)
  | Restart ps -> Printf.sprintf "restart(%s)" (fmt_pids ps)
  | Crash cs ->
    Printf.sprintf "crash(%s)"
      (String.concat "," (List.map (fun (p, s) -> Printf.sprintf "p%d@%d" p s) cs))

let stage_to_string st =
  match st.fault with
  | Crash _ -> fault_to_string st.fault
  | _ -> Printf.sprintf "@%d+%d %s" st.at st.duration (fault_to_string st.fault)

let describe = function
  | [] -> "none"
  | tl -> String.concat "; " (List.map stage_to_string tl)

(* --- shrinking --- *)

(* Fewer stages first (delta-debugging over the stage list), then each
   surviving window shortened as far as the violation allows. *)
let shrink ~still_fails tl =
  let tl = Shrink.list_min ~still_fails tl in
  let arr = Array.of_list tl in
  Array.iteri
    (fun i st ->
      match st.fault with
      | Crash _ -> ()
      | Partition _ | Degrade _ | Freeze _ | Restart _ ->
        if st.duration > 1 then begin
          let with_duration d =
            Array.to_list
              (Array.mapi (fun j s -> if j = i then { s with duration = d } else s) arr)
          in
          let d =
            Shrink.int_min ~lo:1 st.duration
              ~still_fails:(fun d -> still_fails (with_duration d))
          in
          arr.(i) <- { st with duration = d }
        end)
    arr;
  Array.to_list arr
