let agreement decisions =
  let first = ref None and ok = ref true in
  Array.iter
    (function
      | None -> ()
      | Some v -> (
        match !first with
        | None -> first := Some v
        | Some w -> if v <> w then ok := false))
    decisions;
  !ok

let validity ~inputs decisions =
  Array.for_all
    (function None -> true | Some v -> Array.exists (Int.equal v) inputs)
    decisions

let undecided ~crashed decisions =
  let acc = ref [] in
  for i = Array.length decisions - 1 downto 0 do
    if (not crashed.(i)) && Option.is_none decisions.(i) then acc := i :: !acc
  done;
  !acc

(* A loop over a local ref, not a recursive closure: paxos and
   sm_consensus call this between every two engine steps. *)
let all_correct_decided ~crashed decisions =
  let n = Array.length decisions and i = ref 0 in
  while
    !i < n
    && match decisions.(!i) with Some _ -> true | None -> crashed.(!i)
  do
    incr i
  done;
  !i = n
