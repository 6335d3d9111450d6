module Id = Mm_core.Id
module Decimal = Mm_core.Decimal
module Mem = Mm_mem.Mem
module Proc = Mm_sim.Proc

type t = {
  alive : int Mem.reg array;
  me : int;
  n : int;
  last_seen : int array;
  deadline : int array;
  timeout : int array;
  suspected : bool array;
  mutable tick : int;
}

let registers store ~pids ~prefix =
  Array.mapi
    (fun i g ->
      Mem.alloc_in g
        ~name:(String.concat "" [ prefix; "ALIVE["; Decimal.of_int i; "]" ])
        0)
    (Mem.peer_groups store pids)

let create alive ~me =
  let n = Array.length alive in
  {
    alive;
    me;
    n;
    last_seen = Array.make n (-1);
    deadline = Array.make n max_int;
    timeout = Array.make n (8 * n);
    suspected = Array.make n false;
    tick = 0;
  }

let step d =
  Proc.write d.alive.(d.me) (Proc.my_steps ());
  d.tick <- d.tick + 1;
  let j = d.tick mod d.n in
  if j <> d.me then begin
    let v = Proc.read d.alive.(j) in
    let now = Proc.my_steps () in
    if v > d.last_seen.(j) then begin
      d.last_seen.(j) <- v;
      (* a false suspicion means our timeout was too tight: back off *)
      if d.suspected.(j) then begin
        d.suspected.(j) <- false;
        d.timeout.(j) <- d.timeout.(j) * 2
      end;
      d.deadline.(j) <- now + d.timeout.(j)
    end
    else if d.deadline.(j) = max_int then d.deadline.(j) <- now + d.timeout.(j)
    else if now > d.deadline.(j) && not d.suspected.(j) then
      d.suspected.(j) <- true
  end

let leader d =
  let rec first j =
    if j >= d.n then d.me
    else if j = d.me || not d.suspected.(j) then j
    else first (j + 1)
  in
  first 0

let am_leader d = leader d = d.me

let suspects d =
  let acc = ref [] in
  for j = d.n - 1 downto 0 do
    if d.suspected.(j) then acc := j :: !acc
  done;
  !acc
