(** Hardware page protections.

    A protection is attached to each whole region (paper §3.2) and to
    each page-table entry of the simulated MMU. *)

type t = { read : bool; write : bool; execute : bool }

val none : t
val read_only : t
val read_write : t
val read_execute : t
val all : t

val allows : t -> [ `Read | `Write | `Execute ] -> bool

val remove_write : t -> t
(** Used when read-protecting pages for copy-on-write. *)

(** {!remove_write} and {!intersect} allocate nothing: they return one
    of eight protections built once. *)

val subsumes : t -> t -> bool
(** [subsumes a b] iff every access allowed by [b] is allowed by [a]. *)

val intersect : t -> t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
