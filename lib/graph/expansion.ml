let adjacency_masks g =
  let n = Graph.order g in
  Array.init n (fun v ->
      List.fold_left (fun m w -> m lor (1 lsl w)) 0 (Graph.neighbors g v))

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go m 0

(* Enumerate all vertex subsets recursively, threading the subset mask and
   the union of its members' neighborhoods, so each node of the recursion
   tree does O(1) work. *)
let fold_subsets n adj f init =
  let rec go v mask nb count acc =
    if v = n then f acc ~mask ~nb ~count
    else
      let acc = go (v + 1) mask nb count acc in
      go (v + 1) (mask lor (1 lsl v)) (nb lor adj.(v)) (count + 1) acc
  in
  go 0 0 0 0 init

let vertex_expansion_exact g =
  let n = Graph.order g in
  if n = 0 then invalid_arg "Expansion.vertex_expansion_exact: empty graph";
  if n > 24 then
    invalid_arg "Expansion.vertex_expansion_exact: order > 24, use a bound";
  let adj = adjacency_masks g in
  let half = n / 2 in
  let best =
    fold_subsets n adj
      (fun best ~mask ~nb ~count ->
        if count >= 1 && count <= half then begin
          let boundary = popcount (nb land lnot mask) in
          let ratio = float_of_int boundary /. float_of_int count in
          if ratio < best then ratio else best
        end
        else best)
      infinity
  in
  best

let bfs_order g v =
  let n = Graph.order g in
  let seen = Array.make n false in
  seen.(v) <- true;
  let q = Queue.create () in
  Queue.add v q;
  let order = ref [] in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    List.iter
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w q
        end)
      (Graph.neighbors g u)
  done;
  List.rev !order

(* The sampled sweep: every prefix of a breadth-first visit order from
   every start (a connected "ball-ish" set — the low-expansion
   candidates in structured graphs; on a cycle these are exactly the
   arcs), plus uniform random subsets of random sizes.  Sets are bool
   arrays and boundary counts are maintained incrementally as vertices
   join a set, so a full BFS-prefix sweep from one start is
   O(n + edges). *)
let vertex_expansion_sampled rng g ~samples =
  let n = Graph.order g in
  if n = 0 then
    invalid_arg "Expansion.vertex_expansion_sampled: empty graph";
  let half = n / 2 in
  let best = ref infinity in
  let consider boundary count =
    if count >= 1 && count <= half then begin
      let r = float_of_int boundary /. float_of_int count in
      if r < !best then best := r
    end
  in
  let in_set = Array.make n false in
  let in_nb = Array.make n false in
  (* Add [u] to the current set and return the updated boundary count. *)
  let add u boundary =
    let b = ref boundary in
    if in_nb.(u) then decr b;
    in_set.(u) <- true;
    List.iter
      (fun w ->
        if not in_nb.(w) then begin
          in_nb.(w) <- true;
          if not in_set.(w) then incr b
        end)
      (Graph.neighbors g u);
    !b
  in
  for v = 0 to n - 1 do
    Array.fill in_set 0 n false;
    Array.fill in_nb 0 n false;
    let boundary = ref 0 and count = ref 0 in
    List.iter
      (fun u ->
        boundary := add u !boundary;
        incr count;
        consider !boundary !count)
      (bfs_order g v)
  done;
  for _ = 1 to samples do
    Array.fill in_set 0 n false;
    Array.fill in_nb 0 n false;
    let size = 1 + Mm_rng.Rng.int rng (max half 1) in
    let boundary = ref 0 and count = ref 0 in
    while !count < size do
      let v = Mm_rng.Rng.int rng n in
      if not in_set.(v) then begin
        boundary := add v !boundary;
        incr count
      end
    done;
    consider !boundary !count
  done;
  !best

(* For every prefix size s, the BFS start whose s-prefix of the visit
   order has the smallest represented count |S ∪ δS| — the certificate
   family the threshold sweep crashes against.  Measuring at the prefix
   scale where Thm 4.3's majority condition actually binds (|S| near
   n/2) keeps the predicted and empirical thresholds on the same
   footing across graph families. *)
let prefix_certificates g =
  let n = Graph.order g in
  if n = 0 then invalid_arg "Expansion.prefix_certificates: empty graph";
  let out = Array.make n (-1, max_int) in
  let in_rep = Array.make n false in
  for v = 0 to n - 1 do
    Array.fill in_rep 0 n false;
    let rep = ref 0 and count = ref 0 in
    List.iter
      (fun u ->
        if not in_rep.(u) then begin
          in_rep.(u) <- true;
          incr rep
        end;
        List.iter
          (fun w ->
            if not in_rep.(w) then begin
              in_rep.(w) <- true;
              incr rep
            end)
          (Graph.neighbors g u);
        incr count;
        let _, best = out.(!count - 1) in
        if !rep < best then out.(!count - 1) <- (v, !rep))
      (bfs_order g v)
  done;
  out

let prefix_crash_set g ~start ~size =
  let n = Graph.order g in
  if start < 0 || start >= n then
    invalid_arg "Expansion.prefix_crash_set: bad start";
  if size < 0 || size > n then
    invalid_arg "Expansion.prefix_crash_set: bad size";
  let survive = Array.make n false in
  let k = ref 0 in
  List.iter
    (fun u ->
      if !k < size then begin
        survive.(u) <- true;
        incr k
      end)
    (bfs_order g start);
  if !k < size then
    invalid_arg "Expansion.prefix_crash_set: size exceeds start's component";
  let crashed = ref [] in
  for v = n - 1 downto 0 do
    if not survive.(v) then crashed := v :: !crashed
  done;
  !crashed

let second_eigenvalue g =
  match Graph.is_regular g with
  | None -> None
  | Some d ->
    let n = Graph.order g in
    if n < 2 then None
    else begin
      (* Power iteration on B = A + dI restricted to the complement of the
         all-ones vector.  B is positive semidefinite with spectrum
         shifted by d, so the dominant eigenvalue on that complement is
         lambda_2 + d. *)
      let x = Array.init n (fun i -> float_of_int ((i * 37 mod 17) + 1)) in
      let project_and_normalize v =
        let mean = Array.fold_left ( +. ) 0.0 v /. float_of_int n in
        Array.iteri (fun i vi -> v.(i) <- vi -. mean) v;
        let norm = sqrt (Array.fold_left (fun a vi -> a +. (vi *. vi)) 0.0 v) in
        if norm > 1e-12 then Array.iteri (fun i vi -> v.(i) <- vi /. norm) v;
        norm
      in
      ignore (project_and_normalize x);
      let lambda = ref 0.0 in
      for _ = 1 to 300 do
        let y = Array.make n 0.0 in
        for v = 0 to n - 1 do
          let s = List.fold_left (fun a w -> a +. x.(w)) 0.0 (Graph.neighbors g v) in
          y.(v) <- s +. (float_of_int d *. x.(v))
        done;
        let norm = project_and_normalize y in
        lambda := norm;
        Array.blit y 0 x 0 n
      done;
      Some (!lambda -. float_of_int d)
    end

let spectral_lower_bound g =
  match Graph.is_regular g with
  | None -> None
  | Some 0 -> Some 0.0
  | Some d ->
    if not (Graph.is_connected g) then None
    else
      Option.map
        (fun lambda2 ->
          let edge_expansion = (float_of_int d -. lambda2) /. 2.0 in
          Float.max 0.0 (edge_expansion /. float_of_int d))
        (second_eigenvalue g)

let ft_bound ~h ~n =
  if n <= 0 then 0
  else begin
    let b = (1.0 -. (1.0 /. (2.0 *. (1.0 +. h)))) *. float_of_int n in
    let fb = floor b in
    let f = if Float.equal fb b then int_of_float fb - 1 else int_of_float fb in
    min (max f 0) (n - 1)
  end

let represented g ~crashed =
  let n = Graph.order g in
  let is_crashed = Array.make (max n 1) false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Expansion.represented: bad id";
      is_crashed.(v) <- true)
    crashed;
  let correct = ref [] in
  for v = n - 1 downto 0 do
    if not is_crashed.(v) then correct := v :: !correct
  done;
  let boundary = Graph.vertex_boundary g !correct in
  List.sort_uniq compare (!correct @ boundary)

let majority_represented g ~crashed =
  let n = Graph.order g in
  2 * List.length (represented g ~crashed) > n

let rep_count_of_correct adj n correct_mask =
  let nb = ref 0 in
  for v = 0 to n - 1 do
    if correct_mask land (1 lsl v) <> 0 then nb := !nb lor adj.(v)
  done;
  popcount (correct_mask lor !nb)

let worst_crash_set_exact g ~f =
  let n = Graph.order g in
  let adj = adjacency_masks g in
  let full = (1 lsl n) - 1 in
  (* Enumerate correct sets of size n - f; representation is determined by
     the correct set alone (rep = correct ∪ δcorrect). *)
  let target = n - f in
  let best_rep = ref max_int and best_correct = ref 0 in
  let rec go v mask count =
    if count = target then begin
      let rep = rep_count_of_correct adj n mask in
      if rep < !best_rep then begin
        best_rep := rep;
        best_correct := mask
      end
    end
    else if v < n && count + (n - v) >= target then begin
      go (v + 1) (mask lor (1 lsl v)) (count + 1);
      go (v + 1) mask count
    end
  in
  go 0 0 0;
  let crash_mask = full land lnot !best_correct in
  let crashed = ref [] in
  for v = n - 1 downto 0 do
    if crash_mask land (1 lsl v) <> 0 then crashed := v :: !crashed
  done;
  (!crashed, !best_rep)

let worst_crash_set_greedy g ~f =
  let n = Graph.order g in
  if n > 62 then invalid_arg "Expansion.worst_crash_set: order > 62";
  let adj = adjacency_masks g in
  let full = (1 lsl n) - 1 in
  let correct = ref full in
  for _ = 1 to f do
    let best_v = ref (-1) and best_rep = ref max_int in
    for v = 0 to n - 1 do
      if !correct land (1 lsl v) <> 0 then begin
        let rep = rep_count_of_correct adj n (!correct land lnot (1 lsl v)) in
        if rep < !best_rep then begin
          best_rep := rep;
          best_v := v
        end
      end
    done;
    if !best_v >= 0 then correct := !correct land lnot (1 lsl !best_v)
  done;
  let crashed = ref [] in
  for v = n - 1 downto 0 do
    if !correct land (1 lsl v) = 0 then crashed := v :: !crashed
  done;
  (!crashed, rep_count_of_correct adj n !correct)

let worst_crash_set g ~f =
  let n = Graph.order g in
  if f < 0 || f > n then invalid_arg "Expansion.worst_crash_set: bad f";
  if n <= 22 then worst_crash_set_exact g ~f else worst_crash_set_greedy g ~f

let max_guaranteed_f g =
  let n = Graph.order g in
  let rec scan f =
    if f >= n then n - 1
    else begin
      let _, rep = worst_crash_set g ~f in
      if 2 * rep > n then scan (f + 1) else f - 1
    end
  in
  if n = 0 then 0 else scan 0
