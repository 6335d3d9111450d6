module Id = Mm_core.Id
module Decimal = Mm_core.Decimal
module Mem = Mm_mem.Mem
module Proc = Mm_sim.Proc

type 'a outcome =
  | Commit of 'a
  | Adopt of 'a
  | Free of 'a

type 'a result = {
  outcome : 'a outcome;
  seen : 'a list;
}

type 'a t = {
  members : Id.t list; (* sorted; the group's own list *)
  proposals : 'a option Mem.reg array; (* SWMR, writer = i-th member *)
  flags : ('a * bool) option Mem.reg array; (* SWMR, writer = i-th member *)
}

let create_in g ~name =
  let members = Mem.group_members g in
  let mk suffix =
    Array.init (List.length members) (fun i ->
        Mem.alloc_in g
          ~name:
            (String.concat "" [ name; "."; suffix; "["; Decimal.of_int i; "]" ])
          None)
  in
  { members; proposals = mk "prop"; flags = mk "flag" }

let create store ~name ~owner ~participants =
  if participants = [] then invalid_arg "Adopt_commit.create: no participants";
  if not (List.exists (Id.equal owner) participants) then
    invalid_arg "Adopt_commit.create: owner must participate";
  let shared_with = List.filter (fun p -> not (Id.equal p owner)) participants in
  create_in (Mem.group store ~owner ~shared_with) ~name

let participants t = t.members

let index_of t me =
  let rec find i = function
    | [] -> invalid_arg "Adopt_commit.run: caller is not a participant"
    | p :: rest -> if Id.equal p me then i else find (i + 1) rest
  in
  find 0 t.members

(* Correctness sketch.  Writes to each array are SWMR and atomic.

   (1) At most one value can ever carry a [true] flag: a participant i
   writes flag (v, true) only after seeing ONLY v in the proposals array,
   having first written its own proposal v.  If i and j both wrote true
   flags for v <> w, consider whichever of their proposal writes
   linearized first — say i's write of v.  Then j's subsequent scan (which
   happens after j's own write, which follows i's by assumption) must have
   seen v, contradicting j seeing only w.

   (2) Coherence: suppose p returns Commit v, i.e. every flag p read was
   ⊥ or (v, true) and at least its own was (v, true).  Any participant q
   writes flag[q] before scanning flags.  If p saw flag[q] = ⊥ then q's
   flag write follows p's flag scan, which follows p's write of
   flag[p] = (v, true); hence q's scan sees (v, true) and, by (1), v is
   the only true value q can see, so q returns Commit v or Adopt v.  If p
   saw flag[q] = (v, true), the same conclusion holds for q directly.

   (3) Convergence: with a single proposed value every scan sees only it,
   every flag is true, and everyone commits. *)
let run t v =
  let me = Proc.self () in
  let i = index_of t me in
  let k = Array.length t.proposals in
  Proc.write t.proposals.(i) (Some v);
  let seen = ref [ v ] in
  let all_v = ref true in
  for j = 0 to k - 1 do
    match Proc.read t.proposals.(j) with
    | None -> ()
    | Some w ->
      if not (List.mem w !seen) then seen := w :: !seen;
      if w <> v then all_v := false
  done;
  Proc.write t.flags.(i) (Some (v, !all_v));
  let true_val = ref None in
  let any_false = ref false in
  for j = 0 to k - 1 do
    match Proc.read t.flags.(j) with
    | None -> ()
    | Some (w, true) -> true_val := Some w
    | Some (_, false) -> any_false := true
  done;
  let outcome =
    match !true_val with
    | Some w -> if !any_false then Adopt w else Commit w
    | None -> Free v
  in
  { outcome; seen = List.rev !seen }
