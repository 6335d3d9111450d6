(* A binary min-heap of packed int keys.  The engine and the network
   pack (step, index) pairs into single non-negative ints, so one int
   array is the whole structure — no boxing, no comparator calls. *)

type t = {
  mutable a : int array;
  mutable len : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Minheap.create: capacity must be >= 1";
  { a = Array.make capacity 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Smallest key, without removing it.  Callers guard with [is_empty]. *)
let min_key t =
  if t.len = 0 then invalid_arg "Minheap.min_key: empty heap";
  t.a.(0)

let push t key =
  let len = t.len in
  if len = Array.length t.a then begin
    let bigger = Array.make (2 * len) 0 in
    Array.blit t.a 0 bigger 0 len;
    t.a <- bigger
  end;
  t.a.(len) <- key;
  t.len <- len + 1;
  let h = t.a in
  let i = ref len in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    h.(parent) > h.(!i)
  do
    let parent = (!i - 1) / 2 in
    let tmp = h.(parent) in
    h.(parent) <- h.(!i);
    h.(!i) <- tmp;
    i := parent
  done

let pop t =
  if t.len = 0 then invalid_arg "Minheap.pop: empty heap";
  let h = t.a in
  let top = h.(0) in
  t.len <- t.len - 1;
  h.(0) <- h.(t.len);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.len && h.(l) < h.(!smallest) then smallest := l;
    if r < t.len && h.(r) < h.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = h.(!smallest) in
      h.(!smallest) <- h.(!i);
      h.(!i) <- tmp;
      i := !smallest
    end
  done;
  top
