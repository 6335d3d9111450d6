module Id = Mm_core.Id
module Decimal = Mm_core.Decimal
module Int_table = Mm_core.Int_table
module Mem = Mm_mem.Mem
module Proc = Mm_sim.Proc

type 'a t = {
  name : string;
  group : Mem.group;
  members : Id.t list;
  (* One write-once decision register per participant (SWMR): a process
     that commits publishes its decision so later arrivals return fast
     and, crucially, so do participants whose conciliator keeps missing. *)
  decisions : 'a option Mem.reg array;
  (* AC_r, materialized on demand — the paper's infinite object arrays.
     Rounds are reached in order from 1, so they index an [Int_table]. *)
  rounds : 'a Adopt_commit.t Int_table.t;
}

let create_in g ~name =
  let members = Mem.group_members g in
  let decisions =
    Array.init (List.length members) (fun i ->
        Mem.alloc_in g
          ~name:(String.concat "" [ name; ".dec["; Decimal.of_int i; "]" ])
          None)
  in
  { name; group = g; members; decisions; rounds = Int_table.create () }

let create store ~name ~owner ~participants =
  if participants = [] then invalid_arg "Rand_consensus.create: no participants";
  if not (List.exists (Id.equal owner) participants) then
    invalid_arg "Rand_consensus.create: owner must participate";
  let shared_with = List.filter (fun p -> not (Id.equal p owner)) participants in
  create_in (Mem.group store ~owner ~shared_with) ~name

let participants t = t.members

(* Materializing a round's registers is not a process step: conceptually
   the whole array pre-exists (paper: "∀i ∈ {1, 2, ...}"); we just avoid
   allocating rounds nobody reaches. *)
let round_object t r =
  match Int_table.find t.rounds r with
  | ac -> ac
  | exception Not_found ->
    let ac =
      Adopt_commit.create_in t.group
        ~name:(String.concat "" [ t.name; ".ac["; Decimal.of_int r; "]" ])
    in
    Int_table.replace t.rounds r ac;
    ac

let index_of t me =
  let rec find i = function
    | [] -> invalid_arg "Rand_consensus.propose: caller is not a participant"
    | p :: rest -> if Id.equal p me then i else find (i + 1) rest
  in
  find 0 t.members

let propose t v =
  let me = Proc.self () in
  let my_ix = index_of t me in
  let k = Array.length t.decisions in
  let decided_value () =
    let rec scan j =
      if j >= k then None
      else
        match Proc.read t.decisions.(j) with
        | Some w -> Some w
        | None -> scan (j + 1)
    in
    scan 0
  in
  let rec round r prefer =
    match decided_value () with
    | Some w -> w
    | None -> (
      let ac = round_object t r in
      let { Adopt_commit.outcome; seen } = Adopt_commit.run ac prefer in
      match outcome with
      | Adopt_commit.Commit w ->
        Proc.write t.decisions.(my_ix) (Some w);
        w
      | Adopt_commit.Adopt w -> round (r + 1) w
      | Adopt_commit.Free w ->
        (* Conciliator: randomize among the live candidates.  When all
           coins land on the same value, the next round commits. *)
        let next =
          match seen with
          | [] | [ _ ] -> w
          | candidates ->
            let i = Proc.rand_int (List.length candidates) in
            List.nth candidates i
        in
        round (r + 1) next)
  in
  round 1 v
