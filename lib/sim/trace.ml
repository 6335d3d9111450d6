type op =
  | Yielded
  | Sent of Mm_core.Id.t
  | Received of int
  | Read of string
  | Wrote of string
  | Coined of bool
  | Atomic_op
  | Blocked of string
  | Crashed
  | Restarted
  | Finished
  | Dropped
  | Delivered of Mm_core.Id.t

type event = {
  step : int;
  pid : Mm_core.Id.t;
  op : op;
}

type t = {
  buf : event option array;
  mutable next : int;  (* total events recorded *)
}

let create capacity =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { buf = Array.make capacity None; next = 0 }

let record t e =
  t.buf.(t.next mod Array.length t.buf) <- Some e;
  t.next <- t.next + 1

let to_list t =
  let cap = Array.length t.buf in
  let first = max 0 (t.next - cap) in
  let acc = ref [] in
  for i = t.next - 1 downto first do
    match t.buf.(i mod cap) with
    | Some e -> acc := e :: !acc
    | None -> ()
  done;
  !acc

let recorded t = t.next

let pp_op fmt = function
  | Yielded -> Format.fprintf fmt "yield"
  | Sent dst -> Format.fprintf fmt "send->%a" Mm_core.Id.pp dst
  | Received k -> Format.fprintf fmt "recv(%d)" k
  | Read r -> Format.fprintf fmt "read %s" r
  | Wrote r -> Format.fprintf fmt "write %s" r
  | Coined b -> Format.fprintf fmt "coin %b" b
  | Atomic_op -> Format.fprintf fmt "atomic"
  | Blocked r -> Format.fprintf fmt "blocked %s" r
  | Crashed -> Format.fprintf fmt "CRASH"
  | Restarted -> Format.fprintf fmt "RESTART"
  | Finished -> Format.fprintf fmt "done"
  | Dropped -> Format.fprintf fmt "drop"
  | Delivered src -> Format.fprintf fmt "deliver<-%a" Mm_core.Id.pp src

let pp_event fmt e =
  Format.fprintf fmt "[%6d] %a %a" e.step Mm_core.Id.pp e.pid pp_op e.op
