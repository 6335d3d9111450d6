(* Tests for the core model types: process ids and shared-memory
   domains, including the non-uniform (arbitrary S) form the paper keeps
   for future hardware. *)

module Id = Mm_core.Id
module Domain = Mm_core.Domain
module B = Mm_graph.Builders

let test_id_basics () =
  let i = Id.of_int 3 in
  Alcotest.(check int) "roundtrip" 3 (Id.to_int i);
  Alcotest.(check bool) "equal" true (Id.equal i (Id.of_int 3));
  Alcotest.(check bool) "ordered" true (Id.compare (Id.of_int 1) i < 0);
  Alcotest.(check (list int)) "all" [ 0; 1; 2 ] (List.map Id.to_int (Id.all 3));
  Alcotest.(check string) "pp" "p3" (Format.asprintf "%a" Id.pp i);
  Alcotest.(check bool) "negative rejected" true
    (try ignore (Id.of_int (-1)); false with Invalid_argument _ -> true)

let test_id_set_map () =
  let s = Id.Set.of_list [ Id.of_int 2; Id.of_int 0; Id.of_int 2 ] in
  Alcotest.(check int) "set dedup" 2 (Id.Set.cardinal s);
  let m = Id.Map.singleton (Id.of_int 1) "x" in
  Alcotest.(check (option string)) "map" (Some "x") (Id.Map.find_opt (Id.of_int 1) m)

let test_uniform_domain () =
  let dom = Domain.uniform_of_graph (B.ring 5) in
  Alcotest.(check int) "order" 5 (Domain.order dom);
  Alcotest.(check (list int)) "S_0 on the ring" [ 0; 1; 4 ]
    (List.map Id.to_int (Domain.set_of dom (Id.of_int 0)));
  Alcotest.(check bool) "neighbors share" true
    (Domain.can_share dom [ Id.of_int 0; Id.of_int 1 ]);
  Alcotest.(check bool) "0-2 share via S_1" true
    (Domain.can_share dom [ Id.of_int 0; Id.of_int 2 ]);
  Alcotest.(check bool) "0-2-3 never share" false
    (Domain.can_share dom [ Id.of_int 0; Id.of_int 2; Id.of_int 3 ])

let test_full_isolated () =
  let full = Domain.full 4 in
  Alcotest.(check bool) "full shares everyone" true
    (Domain.can_share full (Id.all 4));
  let iso = Domain.isolated 4 in
  Alcotest.(check bool) "isolated shares singletons" true
    (Domain.can_share iso [ Id.of_int 2 ]);
  Alcotest.(check bool) "isolated forbids pairs" false
    (Domain.can_share iso [ Id.of_int 1; Id.of_int 2 ])

let test_arbitrary_domain () =
  (* A non-uniform S: one triple and one disjoint pair — something no
     shared-memory graph's closed neighborhoods can express. *)
  let dom = Domain.of_sets 5 [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check bool) "triple" true
    (Domain.can_share dom [ Id.of_int 0; Id.of_int 2 ]);
  Alcotest.(check bool) "pair" true
    (Domain.can_share dom [ Id.of_int 3; Id.of_int 4 ]);
  Alcotest.(check bool) "across sets" false
    (Domain.can_share dom [ Id.of_int 2; Id.of_int 3 ]);
  Alcotest.(check bool) "set_of undefined" true
    (try ignore (Domain.set_of dom (Id.of_int 0)); false with Not_found -> true);
  Alcotest.(check int) "sets listed" 2 (List.length (Domain.sets dom))

let test_arbitrary_domain_validation () =
  Alcotest.(check bool) "empty member set" true
    (try ignore (Domain.of_sets 3 [ [] ]); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "id out of range" true
    (try ignore (Domain.of_sets 3 [ [ 0; 7 ] ]); false
     with Invalid_argument _ -> true)

let test_arbitrary_domain_store () =
  (* The memory store honors arbitrary domains too. *)
  let dom = Domain.of_sets 4 [ [ 0; 3 ] ] in
  let store = Mm_mem.Mem.create dom in
  ignore
    (Mm_mem.Mem.alloc store ~name:"ok" ~owner:(Id.of_int 0)
       ~shared_with:[ Id.of_int 3 ] 0);
  Alcotest.(check bool) "unlisted pair rejected" true
    (try
       ignore
         (Mm_mem.Mem.alloc store ~name:"bad" ~owner:(Id.of_int 0)
            ~shared_with:[ Id.of_int 1 ] 0);
       false
     with Invalid_argument _ -> true)

let test_domain_pp () =
  let s = Format.asprintf "%a" Domain.pp (Domain.of_sets 3 [ [ 0; 1 ] ]) in
  Alcotest.(check bool) "prints members" true (String.length s > 5)

let prop_uniform_matches_graph =
  QCheck.Test.make ~name:"uniform domain = closed neighborhoods" ~count:60
    QCheck.(pair (int_range 2 10) (int_range 0 500))
    (fun (n, seed) ->
      let rng = Mm_rng.Rng.create seed in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Mm_rng.Rng.bool rng then edges := (u, v) :: !edges
        done
      done;
      let g = Mm_graph.Graph.create n !edges in
      let dom = Domain.uniform_of_graph g in
      List.for_all
        (fun p ->
          List.map Id.to_int (Domain.set_of dom p)
          = Mm_graph.Graph.closed_neighborhood g (Id.to_int p))
        (Id.all n))

(* [can_share]'s contract: an ascending, duplicate-free list (what
   [Mem] hands it) is judged exactly like the brute-force "some member
   set holds them all", on uniform and arbitrary domains alike. *)
let prop_can_share_ascending =
  QCheck.Test.make ~name:"can_share: ascending = subset scan"
    ~count:200
    QCheck.(triple (int_range 1 9) (int_range 0 500) (int_range 0 500))
    (fun (n, gseed, qseed) ->
      let rng = Mm_rng.Rng.create gseed in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Mm_rng.Rng.int rng 3 = 0 then edges := (u, v) :: !edges
        done
      done;
      let uniform = Domain.uniform_of_graph (Mm_graph.Graph.create n !edges) in
      let arbitrary =
        Domain.of_sets n
          (List.init 3 (fun _ ->
               List.init (1 + Mm_rng.Rng.int rng n) (fun _ ->
                   Mm_rng.Rng.int rng n)))
      in
      let q = Mm_rng.Rng.create qseed in
      List.for_all
        (fun dom ->
          List.for_all
            (fun _ ->
              let ids =
                List.filter (fun _ -> Mm_rng.Rng.int q 3 = 0) (Id.all n)
              in
              let brute =
                List.exists
                  (fun s -> List.for_all (fun i -> List.mem i s) ids)
                  (Domain.sets dom)
              in
              Domain.can_share dom ids = brute)
            (List.init 20 Fun.id))
        [ uniform; arbitrary ])

(* --- Decimal --- *)

let test_decimal () =
  let check i =
    Alcotest.(check string) (string_of_int i) (string_of_int i)
      (Mm_core.Decimal.of_int i)
  in
  for i = -20 to 20_000 do
    check i
  done;
  List.iter check
    [ 99_999; 100_000; 1_234_567_890; max_int; max_int - 1; min_int; -1023 ];
  Alcotest.(check bool) "small ints are shared" true
    (Mm_core.Decimal.of_int 7 == Mm_core.Decimal.of_int 7)

(* --- Int_table --- *)

module Int_table = Mm_core.Int_table

let test_int_table_basics () =
  let t : string Int_table.t = Int_table.create () in
  Alcotest.(check string) "unbound -> default" "none"
    (Int_table.find_or t 0 ~default:"none");
  Alcotest.(check bool) "unbound find raises" true
    (match Int_table.find t 5 with exception Not_found -> true | _ -> false);
  Int_table.replace t 1000 "far";
  Int_table.replace t 3 "a";
  Int_table.replace t 3 "b";
  Alcotest.(check string) "replaced" "b" (Int_table.find t 3);
  Alcotest.(check string) "grown past its length" "far" (Int_table.find t 1000);
  Alcotest.(check string) "gap stays unbound" "none"
    (Int_table.find_or t 4 ~default:"none");
  Alcotest.(check string) "negative is unbound" "none"
    (Int_table.find_or t (-1) ~default:"none");
  Alcotest.(check bool) "negative replace rejected" true
    (match Int_table.replace t (-1) "x" with
    | exception Invalid_argument _ -> true
    | () -> false)

(* Any sequence of replaces reads back like a Hashtbl fed the same
   sequence, at every key in and around the written range. *)
let prop_int_table_matches_hashtbl =
  QCheck.Test.make ~count:200 ~name:"Int_table agrees with Hashtbl"
    QCheck.(list (pair (int_bound 300) small_int))
    (fun writes ->
      let t = Int_table.create () and h = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          Int_table.replace t k v;
          Hashtbl.replace h k v)
        writes;
      List.for_all
        (fun k ->
          Int_table.find_or t k ~default:(-1)
          = Option.value ~default:(-1) (Hashtbl.find_opt h k))
        (List.init 320 (fun i -> i - 5)))

let () =
  Alcotest.run "mm_core"
    [
      ( "id",
        [
          Alcotest.test_case "basics" `Quick test_id_basics;
          Alcotest.test_case "set/map" `Quick test_id_set_map;
        ] );
      ( "domain",
        [
          Alcotest.test_case "uniform" `Quick test_uniform_domain;
          Alcotest.test_case "full/isolated" `Quick test_full_isolated;
          Alcotest.test_case "arbitrary" `Quick test_arbitrary_domain;
          Alcotest.test_case "validation" `Quick test_arbitrary_domain_validation;
          Alcotest.test_case "arbitrary + store" `Quick test_arbitrary_domain_store;
          Alcotest.test_case "pp" `Quick test_domain_pp;
          QCheck_alcotest.to_alcotest prop_uniform_matches_graph;
          QCheck_alcotest.to_alcotest prop_can_share_ascending;
        ] );
      ("decimal", [ Alcotest.test_case "= string_of_int" `Quick test_decimal ]);
      ( "int_table",
        [
          Alcotest.test_case "basics" `Quick test_int_table_basics;
          QCheck_alcotest.to_alcotest prop_int_table_matches_hashtbl;
        ] );
    ]
