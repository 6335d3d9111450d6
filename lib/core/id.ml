type t = int

let of_int i =
  if i < 0 then invalid_arg "Id.of_int: negative id";
  i

external to_int : t -> int = "%identity"
let all n = List.init n of_int
external compare : t -> t -> int = "%compare"
external equal : t -> t -> bool = "%equal"
let pp fmt i = Format.fprintf fmt "p%d" i

module Set = Set.Make (Int)
module Map = Map.Make (Int)
