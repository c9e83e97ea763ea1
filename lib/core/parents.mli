(** Parent-fragment lists (paper §4.2.4).

    The "parent" attribute of a cache descriptor is a list of fragment
    descriptors, each mapping a range of the cache to a range of a
    parent cache.  The list is kept sorted and non-overlapping:
    inserting a fragment (a later copy over the same range) splits or
    evicts what it overlaps, so the newest copy wins.  This module is
    the only reader and writer of [c_parents] and of the [c_children]
    lists mirroring them.  Its lookups allocate nothing, and the ones
    asked on every fault answer absence with no exception raised. *)

val covers : Types.cache -> off:int -> bool
(** Does a fragment cover [off]? *)

val covering : Types.cache -> off:int -> Types.frag
(** The fragment covering [off]; [Not_found] when none does. *)

val history : Types.cache -> Types.cache
(** A copy source's history object; [Not_found] when it has none. *)

val history_off : Types.cache -> off:int -> int
(** [off] of a source in its history's offsets; -1 when no history
    covers [off], where a page made is not read-protected. *)

val frags : Types.cache -> Types.frag list

val children : Types.cache -> Types.cache list
(** The caches whose fragments name this one. *)

val names : Types.cache -> Types.cache -> bool
(** [names child parent]: does a fragment of [child] name [parent]? *)

val parents : Types.cache -> Types.cache list
(** The caches the fragments name, each once. *)

val range_read : Types.cache -> off:int -> size:int -> bool
(** Does a fragment child read [off, off+size) of this cache? *)

val remove_range : Types.cache -> off:int -> size:int -> unit
(** Child links are left to {!leave}. *)

val insert : Types.cache -> Types.frag -> unit
(** Insert, overriding whatever it overlaps; links the child. *)

val inherit_range : Types.cache -> dst:Types.cache -> off:int -> size:int -> unit
(** [dst] reads over [off, off+size) what the cache reads there. *)

val leave : Types.cache -> parent:Types.cache -> bool
(** Unlink the child from [parent] when no fragment names it any more;
    [true] when it did. *)

val redirect :
  Types.cache -> old_parent:Types.cache -> new_parent:Types.cache ->
  off:int -> size:int -> unit
(** Re-point the fragment pieces reading [off, off+size) of
    [old_parent] to [new_parent], which holds the same offsets (a
    working history cache interposed over the whole window, §4.2.3, or
    a purged range's zombie), and maintain both child links. *)

val detach_all : Types.cache -> unit
