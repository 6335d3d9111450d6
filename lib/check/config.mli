(** Typed trial-configuration lines for counterexample reports.

    Reports used to carry raw [(string * string) list] pairs, which made
    every scenario re-implement int/float/bool formatting and made the
    values opaque to tooling.  A {!t} keeps the value typed until the
    moment of rendering: scenarios build entries with the typed
    constructors, the report printer renders them uniformly, and
    consumers (tests, the CLI) can read values back without parsing
    display strings. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

(** One configuration line: a display key and its typed value. *)
type entry = string * value

type t = entry list

(** {2 Constructors} *)

val int : string -> int -> entry
val float : string -> float -> entry
val bool : string -> bool -> entry
val str : string -> string -> entry

(** {2 Accessors} *)

(** [find_str t k] is [k]'s string value: [None] when the key is absent
    {e or} holds a value of another type — configs are small, so the
    lookup is linear. *)
val find_str : t -> string -> string option

(** {2 Rendering} *)

(** [render v] is the display string: [Int] via [string_of_int], [Float]
    via ["%g"], [Bool] as [true]/[false], [Str] verbatim. *)
val render : value -> string

(** The rendered [(key, string)] pairs, in order. *)
val to_lines : t -> (string * string) list

(** Indented key-value lines, one per entry, as reports print them. *)
val pp : Format.formatter -> t -> unit
