(** Parent-fragment lists (paper §4.2.4).

    The "parent" attribute of a cache descriptor is a list of fragment
    descriptors, each mapping a range of the cache to a range of a
    parent cache.  The list is kept sorted and non-overlapping:
    inserting a fragment (a later copy over the same range) splits or
    evicts what it overlaps, so the newest copy wins. *)

val find_covering : Types.cache -> off:int -> Types.frag option

val covering_history : Types.cache -> off:int -> (Types.cache * int) option
(** The history object responsible for [off] in this source, with
    [off] translated into the history's offsets: derived from the
    history's fragments that name the source as parent. *)

val is_covered : Types.cache -> off:int -> bool
(** Does a history object cover [off]?  A page made there is
    read-protected (its original must be saved before a write). *)

val subtract : Types.frag -> off:int -> size:int -> Types.frag list
(** The 0, 1 or 2 pieces of a fragment outside the cut range. *)

val remove_range : Types.cache -> off:int -> size:int -> unit

val insert : Types.cache -> Types.frag -> unit
(** Insert, overriding whatever it overlaps; maintains the parent's
    children list. *)

val redirect :
  Types.cache -> old_parent:Types.cache -> new_parent:Types.cache -> unit
(** Re-point every fragment naming [old_parent] (used when a working
    history cache is interposed, §4.2.3 — offsets are unchanged). *)

val detach_all : Types.cache -> unit

val without_cache : Types.cache -> Types.cache list -> Types.cache list
(** The list without the cache, sharing the suffix behind it. *)

val check_invariant : Types.cache -> bool
(** Sorted, non-overlapping, positive sizes, consistent child links. *)
