module Rng = Mm_rng.Rng
module Sched = Mm_sim.Sched

let random_walk () = Sched.create Sched.Random

(* Largest rank exponent a double holds: 4^511 = 2^1022, while 4^512
   overflows to infinity. *)
let top_rank = 511

(* Smallest exponent e with 4^e positive: 4^-537 = 2^-1074. *)
let bottom_rank = -537

(* What a fresh [pct] has cached its sums for: no view the engine picks
   from. *)
let no_view = Sched.make_view []

let pct ~seed ~n ~k ~depth =
  if k < 1 then invalid_arg "Explore.pct: need k >= 1";
  if n < 1 then invalid_arg "Explore.pct: need n >= 1";
  if depth < 1 then invalid_arg "Explore.pct: need depth >= 1";
  let rng = Rng.create seed in
  (* Random ranks become geometric weights: rank r gets 4^r, so the top
     process hogs the schedule without ever starving the bottom one.
     Past n = 512 the ranks shift down so the top weight stays 4^511,
     and the lowest floor at the smallest positive double. *)
  let weight = Array.make n 1.0 in
  let order = Array.init n Fun.id in
  Rng.shuffle_in_place rng order;
  let shift = max 0 (n - 1 - top_rank) in
  Array.iteri
    (fun rank pid ->
      weight.(pid) <- Float.ldexp 1.0 (2 * max bottom_rank (rank - shift)))
    order;
  let points =
    List.sort compare (List.init (k - 1) (fun _ -> 1 + Rng.int rng depth))
  in
  let remaining = ref points in
  let weight_of p =
    if p < 0 || p >= n then
      invalid_arg
        (Printf.sprintf "Explore.pct: runnable pid %d outside [0, %d)" p n);
    Array.unsafe_get weight p
  in
  let heaviest_runnable view =
    let best = ref (-1) in
    for i = 0 to view.Sched.count - 1 do
      let p = view.Sched.runnable.(i) in
      if !best < 0 || weight_of p > weight.(!best) then best := p
    done;
    !best
  in
  (* [prefix.(i)] is the sum of the first i + 1 runnable weights, added
     left to right in runnable order: the roundings of exactly these
     additions decide every pick, so replays pin them.  Valid while
     [cached] is the view being picked from at version [cached_version];
     a demotion invalidates it.  Not a Fenwick tree: weights span about
     2n bits, so from n = 26 on the sums round and any regrouping moves
     picks. *)
  let prefix = ref [||] in
  let cached = ref no_view and cached_version = ref (-1) in
  let refresh view =
    let count = view.Sched.count in
    if Array.length !prefix < count then prefix := Array.make count 0.0;
    let pre = !prefix in
    let acc = ref 0.0 in
    for i = 0 to count - 1 do
      acc := !acc +. weight_of view.Sched.runnable.(i);
      pre.(i) <- !acc
    done;
    cached := view;
    cached_version := view.Sched.version
  in
  let choose view =
    (match !remaining with
    | d :: tl when view.Sched.now >= d ->
      remaining := tl;
      let p = heaviest_runnable view in
      if p >= 0 then begin
        (* Times 4^-(n+1): below every weight not demoted. *)
        weight.(p) <- Float.ldexp weight.(p) (-2 * (n + 1));
        cached_version := -1
      end
    | _ -> ());
    let count = view.Sched.count in
    if count = 0 then invalid_arg "Explore.pct: no runnable process";
    if !cached != view || !cached_version <> view.Sched.version then
      refresh view;
    let pre = !prefix in
    let x = Rng.float rng *. pre.(count - 1) in
    (* The first i < count - 1 with x < prefix.(i), else the last
       runnable pid.  The prefixes never decrease, so bisection finds
       that first index. *)
    let lo = ref 0 and hi = ref (count - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if x < pre.(mid) then hi := mid else lo := mid + 1
    done;
    view.Sched.runnable.(!lo)
  in
  Sched.create (Sched.Custom choose)

let replay pids =
  let remaining = ref pids in
  let choose view =
    match !remaining with
    | p :: tl when Sched.view_mem view p ->
      remaining := tl;
      p
    | _ -> view.Sched.runnable.(0)
  in
  Sched.create (Sched.Custom choose)

let gen_crashes rng ~n ~avoid ~max_crashes ~max_step =
  let candidates =
    List.filter (fun p -> not (List.mem p avoid)) (List.init n Fun.id)
  in
  let budget = min max_crashes (List.length candidates) in
  if budget = 0 then []
  else begin
    let f = if Rng.bool rng then budget else Rng.int rng (budget + 1) in
    let victims = List.filteri (fun i _ -> i < f) (Rng.shuffle rng candidates) in
    List.map (fun pid -> (pid, Rng.int rng (max_step + 1))) victims
  end

let gen_drop rng ~max = Rng.float rng *. max
