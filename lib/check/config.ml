type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type entry = string * value
type t = entry list

let int k v = (k, Int v)
let float k v = (k, Float v)
let bool k v = (k, Bool v)
let str k v = (k, Str v)

let find_str t k =
  match List.assoc_opt k t with Some (Str v) -> Some v | _ -> None

let render = function
  | Int v -> string_of_int v
  | Float v -> Printf.sprintf "%g" v
  | Bool v -> string_of_bool v
  | Str v -> v

let to_lines t = List.map (fun (k, v) -> (k, render v)) t

let pp fmt t =
  List.iter (fun (k, v) -> Format.fprintf fmt "    %-10s %s@." k (render v)) t
