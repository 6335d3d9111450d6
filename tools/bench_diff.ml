(* bench_diff — compare two `bench/main.exe --json` outputs and flag
   regressions, the gate of the perf trajectory.

   Usage:
     bench_diff --check FILE            validate that FILE parses as a
                                        bench JSON array (exit 1 if not)
     bench_diff OLD NEW [--threshold P] compare; a kernel whose ns/run
                                        grew by more than P% (default 20)
                                        is a regression (exit 1 if any)

   --check also gates the parallel-sweep scaling *curve*, not just
   single wall-clock points: every check/sweep-scaling-jN row must
   carry jobs/cores/speedup (and the j4 row a speedup_j4 summary), and
   on full-scale recordings (budget >= 16; the @bench-smoke rows are
   too noisy to gate) the speedups must be monotone non-decreasing in
   j up to the recording host's core count (10% tolerance) with a
   floor on speedup_j4 — 2.5x when the host has >= 4 cores, else a
   no-collapse floor of 0.5x (a 1-core host caps every sweep at one
   domain, so its whole curve is legitimately flat).

   The kv/failover-p99 row is gated the same way: it must carry its
   warm/failover p99 context and timeout count, and on full-scale
   recordings the failover-window p99 must actually spike above the
   warm baseline.

   No external JSON dependency: the parser below handles the full JSON
   grammar the bench emits (arrays, objects, strings, numbers, null). *)

exception Bad of string

(* --- minimal JSON reader --- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
          (* decode to '?' — kernel names are ASCII; keep the parser total *)
          advance ();
          advance ();
          advance ();
          advance ();
          Buffer.add_char buf '?'
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (string_lit ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Arr (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (fields [])
      end
    | Some ('0' .. '9' | '-') -> Num (number ())
    | Some _ -> fail "unexpected character"
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- bench-specific shape --- *)

(* (kernel, ns_per_run option) in file order; None = bechamel produced
   no estimate (emitted as null).  Fixed-budget kernels — the sweep
   kernels (check/<name>-sweep, check/<name>-nemesis), the derived
   throughput rows (dedup hit rate, GC words per trial, whose
   "ns_per_run" holds the derived metric), every kv/*
   latency row (whose "budget" is the request count driven), and every
   mem/* backend-overhead row (whose "budget" is the op count) — must
   additionally carry a "budget" field, the trial count they ran, as a
   positive integer; any other kernel may carry one too, with the same
   shape. *)
let requires_budget kernel =
  (String.starts_with ~prefix:"check/" kernel
  && (String.ends_with ~suffix:"-sweep" kernel
     || String.ends_with ~suffix:"-nemesis" kernel))
  || String.starts_with ~prefix:"check/sweep-scaling-" kernel
  || String.starts_with ~prefix:"kv/" kernel
  || String.starts_with ~prefix:"mem/" kernel
  || String.equal kernel "check/dedup-hit-rate"
  || String.equal kernel "gc/minor-words-per-trial"

(* (kernel, ns_per_run option, all fields) in file order; [diff] only
   compares the first two, [check] digs into the fields of the scaling
   rows. *)
let load_bench path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  match parse_json raw with
  | Arr items ->
    List.map
      (function
        | Obj fields -> (
          let name =
            match List.assoc_opt "kernel" fields with
            | Some (Str k) -> Some k
            | _ -> None
          in
          (match List.assoc_opt "budget" fields with
          | None ->
            (match name with
            | Some k when requires_budget k ->
              raise (Bad (Printf.sprintf "kernel %S must carry a budget" k))
            | _ -> ())
          | Some (Num b) when b > 0.0 && Float.is_integer b -> ()
          | Some _ -> raise (Bad "budget must be a positive integer"));
          match (name, List.assoc_opt "ns_per_run" fields) with
          | Some k, Some (Num ns) -> (k, Some ns, fields)
          | Some k, Some Null -> (k, None, fields)
          | _ -> raise (Bad "entry must have kernel:string, ns_per_run:number|null"))
        | _ -> raise (Bad "array entries must be objects"))
      items
  | _ -> raise (Bad "top level must be an array")

(* --- scaling-curve validation (check/sweep-scaling-jN rows) --- *)

let num_field fields key kernel =
  match List.assoc_opt key fields with
  | Some (Num v) -> v
  | _ ->
    raise (Bad (Printf.sprintf "kernel %S must carry a numeric %S" kernel key))

(* kv/failover-p99 carries its spike-and-recovery context: the warm and
   failover-window p99s and the client give-up count must ride along as
   numbers, or the recorded row can't show the tail spike it exists to
   document.  On full-scale recordings the spike itself is gated: a
   failover that doesn't move the tail above the warm baseline means the
   restart window missed the run entirely. *)
let validate_failover entries =
  List.iter
    (fun (k, _, fields) ->
      if String.equal k "kv/failover-p99" then begin
        let warm = num_field fields "p99_warm" k in
        let fail_p99 = num_field fields "p99_failover" k in
        ignore (num_field fields "timeouts" k);
        let budget = num_field fields "budget" k in
        if budget >= 600.0 && fail_p99 <= warm then
          raise
            (Bad
               (Printf.sprintf
                  "kernel %S: failover p99 %.1f not above warm p99 %.1f — \
                   the restart window missed the run"
                  k fail_p99 warm))
      end)
    entries

(* The speedup curve only gates full-scale recordings: the @bench-smoke
   rows run tiny budgets whose wall clocks are noise-dominated. *)
let scaling_gate_budget = 16.0

let validate_scaling entries =
  let scaling =
    List.filter_map
      (fun (k, _, fields) ->
        if String.starts_with ~prefix:"check/sweep-scaling-" k then
          Some (k, fields)
        else None)
      entries
  in
  if scaling <> [] then begin
    let rows =
      List.map
        (fun (k, fields) ->
          let jobs = num_field fields "jobs" k in
          let cores = num_field fields "cores" k in
          let speedup = num_field fields "speedup" k in
          let budget = num_field fields "budget" k in
          if jobs = 4.0 then
            ignore (num_field fields "speedup_j4" k);
          (k, jobs, cores, speedup, budget))
        scaling
      |> List.sort (fun (_, ja, _, _, _) (_, jb, _, _, _) ->
             Float.compare ja jb)
    in
    let full_scale =
      List.for_all (fun (_, _, _, _, b) -> b >= scaling_gate_budget) rows
    in
    if full_scale then begin
      let rec pairs = function
        | (ka, _, cores, sa, _) :: ((_, jb, _, sb, _) :: _ as rest) ->
          (* only gate the region where the host can actually scale *)
          if jb <= cores && sb < 0.9 *. sa then
            raise
              (Bad
                 (Printf.sprintf
                    "scaling curve collapses: %S speedup %.2f but j=%.0f \
                     drops to %.2f on a %.0f-core host"
                    ka sa jb sb cores));
          pairs rest
        | _ -> ()
      in
      pairs rows;
      List.iter
        (fun (k, jobs, cores, speedup, _) ->
          if jobs = 4.0 then begin
            let floor = if cores >= 4.0 then 2.5 else 0.5 in
            if speedup < floor then
              raise
                (Bad
                   (Printf.sprintf
                      "kernel %S: speedup %.2f below the %.1fx floor for a \
                       %.0f-core host"
                      k speedup floor cores))
          end)
        rows
    end
  end

let check path =
  match load_bench path with
  | [] ->
    Printf.eprintf "%s: parsed, but contains no kernels\n" path;
    exit 1
  | entries ->
    let dup =
      List.find_opt
        (fun (k, _, _) ->
          List.length
            (List.filter (fun (k', _, _) -> String.equal k k') entries)
          > 1)
        entries
    in
    (match dup with
    | Some (k, _, _) ->
      Printf.eprintf "%s: duplicate kernel %S\n" path k;
      exit 1
    | None -> ());
    validate_scaling entries;
    validate_failover entries;
    Printf.printf "%s: ok, %d kernel(s)\n" path (List.length entries);
    0

let diff ~threshold old_path new_path =
  let drop_fields = List.map (fun (k, ns, _) -> (k, ns)) in
  let old_b = load_bench old_path |> drop_fields
  and new_b = load_bench new_path |> drop_fields in
  let regressions = ref 0 in
  Printf.printf "%-32s %14s %14s %9s\n" "kernel" "old ns/run" "new ns/run" "delta";
  Printf.printf "%-32s %14s %14s %9s\n" (String.make 32 '-')
    (String.make 14 '-') (String.make 14 '-') (String.make 9 '-');
  List.iter
    (fun (kernel, new_ns) ->
      match (List.assoc_opt kernel old_b, new_ns) with
      | None, _ ->
        Printf.printf "%-32s %14s %14s %9s\n" kernel "-"
          (match new_ns with Some ns -> Printf.sprintf "%.0f" ns | None -> "?")
          "new"
      | Some (Some old_ns), Some new_ns when old_ns > 0.0 ->
        let pct = (new_ns -. old_ns) /. old_ns *. 100.0 in
        let flag =
          if pct > threshold then begin
            incr regressions;
            "  << REGRESSION"
          end
          else ""
        in
        Printf.printf "%-32s %14.0f %14.0f %+8.1f%%%s\n" kernel old_ns new_ns
          pct flag
      | Some _, _ ->
        Printf.printf "%-32s %14s %14s %9s\n" kernel "?" "?" "n/a")
    new_b;
  List.iter
    (fun (kernel, _) ->
      if not (List.mem_assoc kernel new_b) then
        Printf.printf "%-32s (dropped from new run)\n" kernel)
    old_b;
  if !regressions > 0 then begin
    Printf.printf "\n%d kernel(s) regressed by more than %.0f%%\n" !regressions
      threshold;
    1
  end
  else begin
    Printf.printf "\nno regression above %.0f%%\n" threshold;
    0
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let threshold = ref 20.0 in
  let rec strip_threshold = function
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t ->
        threshold := t;
        strip_threshold rest
      | None ->
        prerr_endline "bench_diff: --threshold needs a number";
        exit 2)
    | a :: rest -> a :: strip_threshold rest
    | [] -> []
  in
  let args = strip_threshold args in
  let status =
    try
      match args with
      | [ "--check"; path ] -> check path
      | [ old_path; new_path ] -> diff ~threshold:!threshold old_path new_path
      | _ ->
        prerr_endline
          "usage: bench_diff --check FILE | bench_diff OLD NEW [--threshold PCT]";
        2
    with
    | Bad msg ->
      Printf.eprintf "bench_diff: invalid bench JSON: %s\n" msg;
      1
    | Sys_error msg ->
      Printf.eprintf "bench_diff: %s\n" msg;
      1
  in
  exit status
