(** Vertex expansion (paper Definition 1) and the Theorem 4.3 fault-
    tolerance bound.

    h(G) = min over nonempty S with |S| <= n/2 of |δS| / |S|.  Exact
    computation enumerates all subsets and is exponential, so it is
    restricted to small graphs; for larger graphs we provide a sampled
    upper bound and, for regular graphs, a spectral (Cheeger-style) lower
    bound. *)

(** [vertex_expansion_exact g] is h(G) by exhaustive enumeration.
    Raises [Invalid_argument] when [Graph.order g > 24] (too large) or
    when the graph has no vertices. *)
val vertex_expansion_exact : Graph.t -> float

(** [vertex_expansion_sampled rng g ~samples] is an upper bound on h(G):
    the minimum ratio over [samples] random subsets plus all BFS balls
    (BFS balls are the natural low-expansion candidates).  Any order >= 1;
    raises [Invalid_argument] on an empty graph.  O(n·(n + edges)) for
    the balls plus O(n + edges) per sample. *)
val vertex_expansion_sampled : Mm_rng.Rng.t -> Graph.t -> samples:int -> float

(** [prefix_certificates g] maps each prefix size [s] (entry [s - 1]) to
    [(start, rep)]: the BFS start whose [s]-prefix of the visit order
    minimizes the represented count |S ∪ δS|, and that count.  These
    prefixes are the low-expansion certificate sets the threshold sweep
    crashes against; entries are [(-1, max_int)] for sizes no component
    reaches.  O(n·(n + edges)). *)
val prefix_certificates : Graph.t -> (int * int) array

(** [prefix_crash_set g ~start ~size] is the complement (as a sorted id
    list) of the first [size] vertices of a BFS from [start] — i.e. crash
    everyone outside that certificate prefix.  Raises [Invalid_argument]
    if the prefix does not reach [size] vertices. *)
val prefix_crash_set : Graph.t -> start:int -> size:int -> int list

(** [spectral_lower_bound g] is a lower bound on h(G) for regular
    connected graphs, via the Cheeger inequality: edge expansion
    >= (d - lambda_2)/2, and vertex expansion >= edge expansion / d.
    Returns [None] for irregular or disconnected graphs. *)
val spectral_lower_bound : Graph.t -> float option

(** [second_eigenvalue g] estimates lambda_2 of the adjacency matrix of a
    regular graph by power iteration on the complement of the all-ones
    eigenvector.  [None] if the graph is not regular. *)
val second_eigenvalue : Graph.t -> float option

(** [ft_bound ~h ~n] is the largest f satisfying Theorem 4.3's strict
    bound f < (1 - 1/(2(1+h))) * n, additionally capped at n-1. *)
val ft_bound : h:float -> n:int -> int

(** [represented g ~crashed] is the set of processes represented by the
    correct ones in HBO: correct processes plus their boundary
    (sorted list).  [crashed] lists crashed process ids. *)
val represented : Graph.t -> crashed:int list -> int list

(** [majority_represented g ~crashed] holds when the represented set is a
    strict majority of all processes — exactly the Theorem 4.2 condition
    for HBO termination. *)
val majority_represented : Graph.t -> crashed:int list -> bool

(** [worst_crash_set g ~f] is a crash set of size [f] minimizing the
    represented set: exact for [Graph.order g <= 22], greedy beyond.
    Returns the crash set and the resulting represented count. *)
val worst_crash_set : Graph.t -> f:int -> int list * int

(** [max_guaranteed_f g] is the largest f such that EVERY crash set of
    size f leaves a majority represented (exact for small graphs, greedy
    estimate beyond) — the graph's true HBO fault tolerance. *)
val max_guaranteed_f : Graph.t -> int
