(** A minimal JSON value, printer and parser.

    Shared by the profiler's machine-readable output, the bench
    regression comparator and the tests; deliberately tiny and
    dependency-free like the rest of [obs].  The parser accepts the
    JSON this repo emits (and standard JSON generally); [\uXXXX]
    escapes above ASCII are kept as literal escape text rather than
    decoded to UTF-8, which is enough for our data. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact (single-line) rendering. *)

val parse : string -> t
(** @raise Parse_error on malformed input. *)

(** {1 Accessors} — total functions returning [None] on shape
    mismatch, composing as [json |> member "a" |> get_list]. *)

val member : string -> t -> t option
val get_str : t option -> string option
val get_num : t option -> float option
val get_list : t option -> t list option
