(* `dune build @cli-smoke`: malformed command lines are usage errors.
   Each bad input must exit 124 (cmdliner's usage-error status) without
   an uncaught exception on stderr; a few well-formed neighbours of the
   same inputs must still exit 0, so a CLI that rejects everything does
   not pass.

   Usage: cli_smoke.exe PATH/TO/mm_cli.exe *)

let bad =
  [
    ([], [ "check"; "mutex"; "--variant"; "nope" ]);
    ([], [ "election"; "--variant"; "nope" ]);
    ([ "MM_JOBS=abc" ], [ "check"; "hbo" ]);
    ([], [ "check"; "hbo"; "--jobs"; "0" ]);
    ([], [ "check"; "hbo"; "-g"; "hypercube"; "-n"; "6" ]);
    ([], [ "check"; "hbo"; "-g"; "torus"; "-n"; "5" ]);
    ([], [ "check"; "hbo"; "-g"; "margulis"; "-n"; "5" ]);
    ([], [ "check"; "hbo"; "-g"; "barbell"; "-n"; "2" ]);
    ([], [ "check"; "hbo"; "-g"; "cliques"; "-n"; "4" ]);
    ([], [ "check"; "hbo"; "-g"; "disjoint"; "-n"; "5" ]);
    ([], [ "check"; "hbo"; "-g"; "nope" ]);
    ([], [ "consensus"; "-g"; "ring"; "-n"; "2" ]);
    ([], [ "graph"; "-g"; "torus"; "-n"; "7" ]);
    ([], [ "consensus"; "--crash"; "1:x" ]);
    ([], [ "paxos"; "--crash"; "1:2:3" ]);
    ([], [ "paxos"; "--oracle"; "nope" ]);
    ([], [ "experiment"; "E99" ]);
    ([], [ "kv"; "--timeout"; "0" ]);
    ([], [ "kv"; "--shards"; "0" ]);
    ([], [ "kv"; "--replicas"; "0" ]);
    ([], [ "kv"; "--clients"; "0" ]);
    ([], [ "kv"; "--keys"; "0" ]);
    ([], [ "election"; "-n"; "0" ]);
    ([], [ "paxos"; "-n"; "0" ]);
    ([], [ "smr"; "-n"; "0" ]);
    ([], [ "mutex"; "--n"; "0" ]);
    ([], [ "check"; "hbo"; "--n"; "0" ]);
    ([], [ "check"; "omega"; "--n"; "0" ]);
    ([], [ "check"; "abd"; "--n"; "0" ]);
    ([], [ "check"; "paxos"; "--n"; "0" ]);
    ([], [ "check"; "kv"; "--n"; "0" ]);
    ([], [ "check"; "hbo"; "--expect-stall"; "-n"; "4" ]);
    ([], [ "election"; "--variant"; "lossy"; "--drop"; "1.5" ]);
    ([], [ "check"; "omega"; "--variant"; "lossy"; "--drop=-0.5"; "--budget"; "3" ]);
    ([], [ "check"; "omega"; "--variant"; "lossy"; "--drop=nan"; "--budget"; "1" ]);
    ([], [ "consensus"; "--crash"; "99:0" ]);
    ([], [ "consensus"; "--crash=-1:0" ]);
    ([], [ "consensus"; "--crash"; "0:-5" ]);
    ([], [ "election"; "--crash"; "9:0" ]);
    ([], [ "paxos"; "--crash"; "9:0" ]);
    ([], [ "smr"; "--crash"; "9:0" ]);
    ([], [ "election"; "-n"; "2"; "--crash"; "0"; "--crash"; "1" ]);
    ([], [ "smr"; "--commands=-1" ]);
    ([], [ "check"; "smr"; "--commands=-1"; "--budget"; "1" ]);
    ([], [ "kv"; "--ops=-1" ]);
    ([], [ "kv"; "--gap"; "0" ]);
    ([], [ "kv"; "--gap=-1" ]);
    ([], [ "kv"; "--gap"; "nan" ]);
    ([], [ "kv"; "--gap"; "1e308" ]);
    ([], [ "kv"; "--reads"; "1.5" ]);
    ([], [ "kv"; "--reads=-0.1" ]);
    ([], [ "kv"; "--reads"; "nan" ]);
    ([], [ "kv"; "--theta=-1" ]);
    ([], [ "kv"; "--theta"; "nan" ]);
    ([], [ "mutex"; "--algo"; "nope" ]);
    ([], [ "check"; "hbo"; "--budget=-1" ]);
    ([], [ "check"; "paxos"; "--max-steps"; "0" ]);
    ([], [ "check"; "paxos"; "--max-steps=-5" ]);
    ([], [ "check"; "smr"; "--max-steps"; "0" ]);
    ([], [ "check"; "smr"; "--max-steps=-5" ]);
    ([], [ "check"; "mutex"; "--max-steps"; "0" ]);
    ([], [ "check"; "mutex"; "--max-steps=-5" ]);
    ([], [ "check"; "kv"; "--max-steps"; "0" ]);
    ([], [ "check"; "kv"; "--max-steps=-5" ]);
    ([], [ "check"; "hbo"; "--max-steps"; "0" ]);
    ([], [ "check"; "abd"; "--max-steps"; "0" ]);
    ([], [ "kv"; "--max-steps"; "0" ]);
    ([], [ "kv"; "--max-steps=-3" ]);
    ([], [ "check"; "hbo"; "--trace=-1" ]);
    ([], [ "check"; "omega"; "--warmup"; "0" ]);
    ([], [ "check"; "omega"; "--window=-5" ]);
    ([], [ "consensus"; "--impl"; "direct" ]);
    ([], [ "check"; "hbo"; "--impl"; "direct" ]);
    ([], [ "paxos"; "-n"; "3"; "--oracle"; "static:99" ]);
    ([], [ "paxos"; "-n"; "3"; "--oracle"; "static:-1" ]);
  ]

let good =
  [
    ([], [ "check"; "omega"; "--variant"; "lossy"; "-n"; "4"; "--budget"; "1" ]);
    ([ "MM_JOBS=1" ], [ "check"; "hbo"; "--budget"; "1" ]);
    ([], [ "check"; "hbo"; "-g"; "hypercube"; "-n"; "8"; "--budget"; "1" ]);
    ([], [ "consensus"; "-g"; "complete"; "-n"; "4"; "--crash"; "1:0" ]);
    ([], [ "graph"; "-g"; "torus"; "-n"; "9" ]);
    ([], [ "experiment"; "--quick"; "E1" ]);
    ([], [ "election"; "-n"; "2"; "--crash"; "0" ]);
    ([], [ "kv"; "--ops"; "0" ]);
    ([], [ "kv"; "--timeout"; "4611686018427387903" ]);
    ([], [ "mutex"; "--algo"; "mm"; "--entries"; "1" ]);
    ([], [ "check"; "smr"; "--trace"; "0" ]);
    ( [],
      [ "check"; "omega"; "-n"; "3"; "--warmup"; "4000"; "--window"; "1000";
        "--budget"; "2" ] );
    ( [],
      [ "check"; "hbo"; "--impl"; "direct"; "-g"; "edgeless"; "-n"; "4";
        "--budget"; "1" ] );
    ([], [ "consensus"; "--impl"; "direct"; "-g"; "edgeless"; "-n"; "4" ]);
    ([], [ "paxos"; "-n"; "3"; "--oracle"; "static:2" ]);
  ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let run exe (env, args) =
  (* The case's own MM_JOBS replaces any inherited one. *)
  let inherited =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"MM_JOBS=" kv))
      (Array.to_list (Unix.environment ()))
  in
  let env = Array.of_list (inherited @ env) in
  let out, inp, err = Unix.open_process_args_full exe (Array.of_list (exe :: args)) env in
  close_out inp;
  let stderr = In_channel.input_all err in
  ignore (In_channel.input_all out);
  let code =
    match Unix.close_process_full (out, inp, err) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> -s
  in
  (code, stderr)

let () =
  let exe = Sys.argv.(1) in
  let show (env, args) = String.concat " " (env @ [ "mm" ] @ args) in
  let failures = ref 0 in
  let fail case fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        Printf.printf "FAIL %s: %s\n" (show case) msg)
      fmt
  in
  List.iter
    (fun case ->
      let code, stderr = run exe case in
      if code <> 124 then fail case "exit %d, expected 124\n%s" code stderr
      else if contains stderr "exception" then
        fail case "exception on stderr\n%s" stderr)
    bad;
  List.iter
    (fun case ->
      let code, stderr = run exe case in
      if code <> 0 then fail case "exit %d, expected 0\n%s" code stderr)
    good;
  if !failures > 0 then exit 1;
  Printf.printf "cli-smoke: %d bad input(s) rejected with exit 124, %d good accepted\n"
    (List.length bad) (List.length good)
