(* Tests for the ABD register emulation: atomicity of the emulated
   register, and the majority requirement that the m&m model's native
   registers do not have. *)

module Abd = Mm_abd.Abd
module Engine = Mm_sim.Engine

let no_violations name o =
  let v = Abd.atomicity_violations o in
  Alcotest.(check (list string)) (name ^ ": atomic") [] v

let test_write_then_read () =
  let scripts = [| [ `Write 42 ]; [ `Pause 200; `Read ]; []; [] |] in
  let o = Abd.run ~seed:1 ~n:4 ~scripts () in
  Alcotest.(check bool) "completed" true (o.Abd.pending = 0);
  no_violations "w-r" o;
  (* The pause outlasts the write: the read must see 42. *)
  let read_value =
    List.find_map
      (fun e -> match e.Abd.kind with `Read v -> Some v | _ -> None)
      o.Abd.history
  in
  Alcotest.(check (option int)) "read sees write" (Some 42) read_value

let test_read_initial () =
  let scripts = [| []; [ `Read ]; [] |] in
  let o = Abd.run ~seed:2 ~n:3 ~scripts () in
  no_violations "initial" o;
  let read_value =
    List.find_map
      (fun e -> match e.Abd.kind with `Read v -> Some v | _ -> None)
      o.Abd.history
  in
  Alcotest.(check (option int)) "initial value" (Some 0) read_value

let test_multi_writer () =
  (* Two processes write concurrently: Lamport pairs keep the register
     atomic, and a later read sees one of the writes (never a mix). *)
  for seed = 1 to 15 do
    let scripts =
      [|
        [ `Write 10; `Write 11 ];
        [ `Write 20; `Write 21 ];
        [ `Pause 300; `Read ];
      |]
    in
    let o = Abd.run ~seed ~n:3 ~scripts () in
    Alcotest.(check int) (Printf.sprintf "done (seed %d)" seed) 0 o.Abd.pending;
    no_violations (Printf.sprintf "mw seed %d" seed) o;
    let final_read =
      List.rev o.Abd.history
      |> List.find_map (fun e ->
             match e.Abd.kind with `Read v -> Some v | _ -> None)
    in
    match final_read with
    | Some v ->
      Alcotest.(check bool) "sees some completed write" true
        (List.mem v [ 10; 11; 20; 21 ])
    | None -> Alcotest.fail "no read"
  done

let test_concurrent_reads_atomic () =
  for seed = 1 to 15 do
    let scripts =
      [|
        [ `Write 1; `Pause 20; `Write 2; `Pause 20; `Write 3 ];
        [ `Read; `Read; `Read ];
        [ `Pause 10; `Read; `Read ];
        [ `Pause 35; `Read ];
      |]
    in
    let o = Abd.run ~seed ~n:4 ~scripts () in
    Alcotest.(check int) (Printf.sprintf "all done (seed %d)" seed) 0 o.Abd.pending;
    no_violations (Printf.sprintf "concurrent seed %d" seed) o
  done

let test_minority_crash_survives () =
  (* One replica crash out of 4: everything still completes. *)
  let scripts = [| [ `Write 7; `Read ]; [ `Read ]; [ `Read ]; [] |] in
  let o =
    Abd.run ~seed:5 ~n:4 ~crashes:[ (3, 0) ] ~scripts ()
  in
  Alcotest.(check int) "completed" 0 o.Abd.pending;
  no_violations "minority crash" o

let test_majority_crash_blocks () =
  (* THE contrast with m&m: crash a majority of replicas and the
     emulated register blocks forever; a native register would still be
     readable by any survivor (see test_mem / the E10 table). *)
  let scripts = [| [ `Pause 500; `Write 7 ]; [ `Pause 500; `Read ]; []; [] |] in
  let o =
    Abd.run ~seed:6 ~n:4 ~max_steps:100_000
      ~crashes:[ (2, 100); (3, 100) ]
      ~scripts ()
  in
  Alcotest.(check bool) "blocked" true (o.Abd.pending > 0);
  Alcotest.(check bool) "hit step limit" true (o.Abd.reason = Engine.Step_limit)

let test_exact_majority_boundary () =
  (* n = 5: two crashes leave 3 = majority (works); at three crashes it
     must block. *)
  let base_scripts = [| [ `Write 1; `Read ]; [ `Read ]; []; []; [] |] in
  let ok =
    Abd.run ~seed:7 ~n:5 ~crashes:[ (3, 0); (4, 0) ]
      ~scripts:base_scripts ()
  in
  Alcotest.(check int) "2 of 5 crashed: fine" 0 ok.Abd.pending;
  let blocked =
    Abd.run ~seed:7 ~n:5 ~max_steps:80_000
      ~crashes:[ (2, 0); (3, 0); (4, 0) ]
      ~scripts:base_scripts ()
  in
  Alcotest.(check bool) "3 of 5 crashed: blocked" true (blocked.Abd.pending > 0)

let prop_abd_atomicity =
  QCheck.Test.make ~name:"ABD atomicity over random scripts" ~count:40
    QCheck.(pair (int_range 0 5000) (list_of_size (Gen.int_range 1 5) (int_range 1 9)))
    (fun (seed, writes) ->
      QCheck.assume (writes <> []);
      let writer_script =
        List.concat_map (fun v -> [ `Write v; `Pause (v * 3) ]) writes
      in
      let scripts =
        [|
          writer_script;
          [ `Read; `Pause 15; `Read ];
          [ `Pause 8; `Read; `Read ];
        |]
      in
      let o = Abd.run ~seed ~n:3 ~scripts () in
      o.Abd.pending = 0 && Abd.atomicity_violations o = [])

let () =
  Alcotest.run "mm_abd"
    [
      ( "abd",
        [
          Alcotest.test_case "write then read" `Quick test_write_then_read;
          Alcotest.test_case "read initial" `Quick test_read_initial;
          Alcotest.test_case "multi-writer" `Quick test_multi_writer;
          Alcotest.test_case "concurrent reads atomic" `Quick
            test_concurrent_reads_atomic;
          Alcotest.test_case "minority crash" `Quick test_minority_crash_survives;
          Alcotest.test_case "majority crash blocks" `Quick
            test_majority_crash_blocks;
          Alcotest.test_case "majority boundary" `Quick test_exact_majority_boundary;
          QCheck_alcotest.to_alcotest prop_abd_atomicity;
        ] );
    ]
