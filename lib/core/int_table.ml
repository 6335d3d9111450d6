(* Growable array + presence bitmap.  [data] holds junk (copies of the
   first value written) wherever [present] is 0, so it never needs an
   ['a] sentinel and never boxes a value in an option. *)

type 'a t = {
  mutable data : 'a array;
  mutable present : Bytes.t;
}

let create () = { data = [||]; present = Bytes.empty }

let mem t k =
  k >= 0 && k < Bytes.length t.present && Bytes.unsafe_get t.present k <> '\000'

let find t k = if mem t k then Array.unsafe_get t.data k else raise Not_found
let find_or t k ~default = if mem t k then Array.unsafe_get t.data k else default

let replace t k v =
  if k < 0 then invalid_arg "Int_table.replace: negative key";
  let len = Bytes.length t.present in
  if k >= len then begin
    let len' = Int.max (k + 1) (Int.max 4 (2 * len)) in
    let data = Array.make len' v in
    let present = Bytes.make len' '\000' in
    if len > 0 then begin
      Array.blit t.data 0 data 0 len;
      Bytes.blit t.present 0 present 0 len
    end;
    t.data <- data;
    t.present <- present
  end;
  Array.unsafe_set t.data k v;
  Bytes.unsafe_set t.present k '\001'
