type view = {
  mutable now : int;
  mutable count : int;
  runnable : int array;
  mask : Bytes.t;
  mutable version : int;
  steps : int -> int;
}

let make_view ?(now = 0) ?(steps = fun _ -> 0) pids =
  let runnable = Array.of_list pids in
  let top = Array.fold_left max (-1) runnable in
  let mask = Bytes.make (top + 1) '\000' in
  Array.iter (fun p -> Bytes.set mask p '\001') runnable;
  { now; count = Array.length runnable; runnable; mask; version = 0; steps }

(* O(1): the mask mirrors the valid prefix of [runnable] at all times
   (the engine maintains both together; [make_view] seeds them). *)
let view_mem view p =
  p >= 0 && p < Bytes.length view.mask
  && Bytes.unsafe_get view.mask p <> '\000'

type base =
  | Round_robin
  | Random
  | Custom of (view -> int)

(* One timely process: its bound, the per-process counts of steps taken
   since it last ran, and the running maximum of those counts.  The max
   is maintained incrementally — it only grows on +1 updates and resets
   to 0 when the timely process itself steps — so both [note_step] and
   the urgent pick are O(timely), not O(n). *)
type tentry = {
  tp : int;
  ti : int;
  mutable c : int array;  (* sized lazily once the system size is known *)
  mutable worst : int;
}

type t = {
  base : base;
  mutable timely_arr : tentry array;
  mutable rr_cursor : int;
}

let create ?(timely = []) base =
  List.iter
    (fun (pid, i) ->
      if pid < 0 then invalid_arg "Sched.create: negative pid";
      if i < 2 then invalid_arg "Sched.create: timeliness bound must be >= 2")
    timely;
  {
    base;
    timely_arr =
      Array.of_list
        (List.map (fun (tp, ti) -> { tp; ti; c = [||]; worst = 0 }) timely);
    rr_cursor = -1;
  }

let timely t =
  Array.to_list (Array.map (fun e -> (e.tp, e.ti)) t.timely_arr)

let has_timely t = Array.length t.timely_arr > 0

let note_step t ~pid ~n =
  let arr = t.timely_arr in
  for j = 0 to Array.length arr - 1 do
    let e = arr.(j) in
    if e.tp < n then begin
      if Array.length e.c < n then e.c <- Array.make n 0;
      if e.tp = pid then begin
        Array.fill e.c 0 n 0;
        e.worst <- 0
      end
      else if pid < n then begin
        let v = e.c.(pid) + 1 in
        e.c.(pid) <- v;
        if v > e.worst then e.worst <- v
      end
    end
  done

let note_crash t ~pid =
  if Array.exists (fun e -> e.tp = pid) t.timely_arr then
    t.timely_arr <-
      Array.of_list
        (List.filter (fun e -> e.tp <> pid) (Array.to_list t.timely_arr))

(* A timely p becomes urgent when some other process has taken i-1 steps
   since p last ran: running p now keeps every window of i steps of any
   q containing a step of p.  Returns -1 when nothing is urgent; ties
   keep the earliest-listed candidate (strictly-greater wins), matching
   the historical fold order.  Allocates nothing. *)
let most_urgent_pid t view =
  let arr = t.timely_arr in
  let bp = ref (-1) and bu = ref min_int in
  for j = 0 to Array.length arr - 1 do
    let e = arr.(j) in
    if e.worst >= e.ti - 1 && view_mem view e.tp then begin
      let u = e.worst - e.ti in
      if u > !bu then begin
        bp := e.tp;
        bu := u
      end
    end
  done;
  !bp

(* First runnable pid strictly after [cursor], else wrap to the lowest;
   entries [0, count) are ascending.  Top-level so the per-step
   round-robin pick allocates nothing. *)
let rec rr_after view cursor i =
  if i >= view.count then view.runnable.(0)
  else if view.runnable.(i) > cursor then view.runnable.(i)
  else rr_after view cursor (i + 1)

let base_pick t rng view =
  match t.base with
  | Round_robin ->
    let chosen = rr_after view t.rr_cursor 0 in
    t.rr_cursor <- chosen;
    chosen
  | Random -> view.runnable.(Mm_rng.Rng.int rng view.count)
  | Custom f ->
    let p = f view in
    if not (view_mem view p) then
      invalid_arg "Sched.pick: custom policy chose a non-runnable process";
    p

let pick t rng view =
  if view.count = 0 then invalid_arg "Sched.pick: no runnable process";
  if Array.length t.timely_arr = 0 then base_pick t rng view
  else begin
    let p = most_urgent_pid t view in
    if p >= 0 then p else base_pick t rng view
  end
