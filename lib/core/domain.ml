type t = {
  n : int;
  member_sets : Id.Set.t list;
  host : Id.t list array option; (* S_p per process, for uniform domains *)
}

let of_sets n sets =
  if n < 0 then invalid_arg "Domain.of_sets: negative order";
  let build set =
    match set with
    | [] -> invalid_arg "Domain.of_sets: empty member set"
    | _ ->
      List.fold_left
        (fun acc i ->
          if i < 0 || i >= n then invalid_arg "Domain.of_sets: id out of range";
          Id.Set.add (Id.of_int i) acc)
        Id.Set.empty set
  in
  { n; member_sets = List.map build sets; host = None }

(* Check sweeps rebuild the same O(n^2) domain for every trial (the
   graph or process count is fixed sweep-wide), so the constructors
   below keep a one-slot cache each.  A domain is immutable once built,
   which makes sharing one value across concurrent sweep workers safe;
   the slots are Atomics only so racing stores stay well-defined (last
   writer wins — it is a cache, not a registry). *)
let uniform_cache : (Mm_graph.Graph.t * t) option Atomic.t = Atomic.make None

let uniform_of_graph g =
  match Atomic.get uniform_cache with
  | Some (g', t) when g' == g -> t
  | _ ->
    let n = Mm_graph.Graph.order g in
    let host =
      Array.init n (fun p ->
          List.map Id.of_int (Mm_graph.Graph.closed_neighborhood g p))
    in
    let member_sets =
      Array.to_list (Array.map (fun ids -> Id.Set.of_list ids) host)
    in
    let t = { n; member_sets; host = Some host } in
    Atomic.set uniform_cache (Some (g, t));
    t

let cached_by_order cache build n =
  match Atomic.get cache with
  | Some (n', t) when n' = n -> t
  | _ ->
    let t = uniform_of_graph (build n) in
    Atomic.set cache (Some (n, t));
    t

let full_cache : (int * t) option Atomic.t = Atomic.make None
let full n = cached_by_order full_cache Mm_graph.Builders.complete n
let isolated_cache : (int * t) option Atomic.t = Atomic.make None
let isolated n = cached_by_order isolated_cache Mm_graph.Builders.edgeless n
let order t = t.n
let sets t = List.map Id.Set.elements t.member_sets

(* Sorted-merge subset test over two ascending id lists. *)
let rec sublist_sorted xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xt, y :: yt ->
    let c = Id.compare x y in
    if c = 0 then sublist_sorted xt yt
    else if c > 0 then sublist_sorted xs yt
    else false

(* Whether some candidate S_p, p in [cands], holds the ascending [ids]. *)
let rec some_superset host ids = function
  | [] -> false
  | p :: rest ->
    sublist_sorted ids host.(Id.to_int p) || some_superset host ids rest

let can_share t ids =
  match (t.host, ids) with
  | Some host, m0 :: _ when Id.to_int m0 < t.n ->
    (* Uniform domain: members ⊆ S_p forces p ∈ S_{m0}, because closed
       neighborhoods of an undirected graph are symmetric (p ∈ S_q iff
       q ∈ S_p).  Only the |S_{m0}| candidate sets need the subset test
       — O(degree²) per query instead of a scan of all n member sets,
       which is what keeps register allocation flat as n grows.  [ids]
       is ascending by contract, so the merge test runs on it as is. *)
    some_superset host ids host.(Id.to_int m0)
  | _ ->
    let query = Id.Set.of_list ids in
    List.exists (fun s -> Id.Set.subset query s) t.member_sets

let set_of t p =
  match t.host with
  | None -> raise Not_found
  | Some host -> host.(Id.to_int p)

let pp fmt t =
  let pp_set fmt s =
    Format.fprintf fmt "{%s}"
      (String.concat ","
         (List.map (fun i -> string_of_int (Id.to_int i)) (Id.Set.elements s)))
  in
  Format.fprintf fmt "S = {%a}"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_set)
    t.member_sets
