module Rng = Mm_rng.Rng
module Sched = Mm_sim.Sched

let random_walk () = Sched.create Sched.Random

let pct ~seed ~n ~k ~depth =
  if k < 1 then invalid_arg "Explore.pct: need k >= 1";
  if n < 1 then invalid_arg "Explore.pct: need n >= 1";
  if depth < 1 then invalid_arg "Explore.pct: need depth >= 1";
  let rng = Rng.create seed in
  (* Random ranks become geometric weights: rank r gets 4^r, so the top
     process hogs the schedule without ever starving the bottom one. *)
  let weight = Array.make n 1.0 in
  let order = Array.init n Fun.id in
  Rng.shuffle_in_place rng order;
  Array.iteri
    (fun rank pid -> weight.(pid) <- 4.0 ** float_of_int rank)
    order;
  let demote_factor = 4.0 ** float_of_int (-(n + 1)) in
  let points =
    List.sort compare (List.init (k - 1) (fun _ -> 1 + Rng.int rng depth))
  in
  let remaining = ref points in
  let heaviest_runnable view =
    let best = ref (-1) in
    for i = 0 to view.Sched.count - 1 do
      let p = view.Sched.runnable.(i) in
      if !best < 0 || weight.(p) > weight.(!best) then best := p
    done;
    !best
  in
  let choose view =
    (match !remaining with
    | d :: tl when view.Sched.now >= d ->
      remaining := tl;
      let p = heaviest_runnable view in
      if p >= 0 then weight.(p) <- weight.(p) *. demote_factor
    | _ -> ());
    let count = view.Sched.count in
    if count = 0 then invalid_arg "Explore.pct: no runnable process";
    let total = ref 0.0 in
    for i = 0 to count - 1 do
      total := !total +. weight.(view.Sched.runnable.(i))
    done;
    let x = Rng.float rng *. !total in
    (* A loop over local refs, not a recursive closure, so the running
       sum stays unboxed; it adds the weights in the same order. *)
    let acc = ref 0.0 and i = ref 0 and chosen = ref (-1) in
    while !chosen < 0 do
      let p = view.Sched.runnable.(!i) in
      if !i = count - 1 then chosen := p
      else begin
        acc := !acc +. weight.(p);
        if x < !acc then chosen := p else incr i
      end
    done;
    !chosen
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
