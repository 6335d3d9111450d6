type op =
  | Read of int
  | Write of int

type event = {
  proc : int;
  op : op;
  start_t : int;
  finish_t : int;
}

let value e = match e.op with Read v | Write v -> v

(* By value, a value's write before its reads. *)
let by_value a b =
  match (Int.compare (value a) (value b), a.op, b.op) with
  | 0, Write _, Read _ -> -1
  | 0, Read _, Write _ -> 1
  | c, _, _ -> c

let check ?(init = 0) events =
  (* The initial value's write finished before everything. *)
  let first =
    { proc = -1; op = Write init; start_t = min_int; finish_t = min_int }
  in
  let evs = Array.of_list (first :: events) in
  Array.stable_sort by_value evs;
  let m = Array.length evs in
  let ok = ref true and zones = ref [] and i = ref 0 in
  while !i < m do
    (* A value's cluster: its write [w], then the reads that returned
       it; a cluster led by a read is of a value never written. *)
    let j = !i and w = evs.(!i) in
    (match w.op with Read _ -> ok := false | Write _ -> ());
    let lo = ref max_int and hi = ref min_int in
    while !i < m && value evs.(!i) = value w do
      let e = evs.(!i) in
      if e.finish_t < e.start_t then
        invalid_arg "Lin.check: event finishes before it starts";
      (match e.op with
      | Write _ when !i > j ->
        invalid_arg "Lin.check: a value written twice (or init written)"
      | _ -> if e.finish_t < w.start_t then ok := false);
      lo := Int.min !lo e.finish_t;
      hi := Int.max !hi e.start_t;
      incr i
    done;
    (* The zone from the earliest finish to the latest start: forward
       when [lo < hi], as (left end, right end, forward). *)
    zones := (Int.min !lo !hi, Int.max !lo !hi, !lo < !hi) :: !zones
  done;
  (* No forward zone may overlap another, nor strictly contain a backward
     one.  Sweep by left end, backward zones first among equal ends,
     [reach] the right end of the last forward zone (which, clear of the
     earlier ones, reaches furthest). *)
  let by_left (l, _, f) (l', _, f') =
    match Int.compare l l' with 0 -> Bool.compare f f' | c -> c
  in
  let reach = ref min_int in
  !ok
  && List.for_all
       (fun (left, right, forward) ->
         if not forward then right >= !reach
         else left >= !reach && (reach := right; true))
       (List.sort by_left !zones)

let of_abd_history history =
  List.map
    (fun (e : Mm_abd.Abd.event) ->
      {
        proc = e.Mm_abd.Abd.proc;
        op =
          (match e.Mm_abd.Abd.kind with
          | `Read v -> Read v
          | `Write v -> Write v);
        start_t = e.Mm_abd.Abd.start_step;
        finish_t = e.Mm_abd.Abd.end_step;
      })
    history
