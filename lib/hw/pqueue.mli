(** Minimal binary min-heap used by the discrete-event {!Engine}.

    Elements are ordered by a user-supplied comparison; ties are
    resolved by insertion order being encoded in the elements
    themselves (the engine orders tasks by [(time, sequence)]). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the minimum element.
    @raise Invalid_argument if the heap is empty. *)

val top : 'a t -> 'a
(** The minimum element, left in place (no allocation).
    @raise Invalid_argument if the heap is empty. *)

val pop_if : 'a t -> ('a -> bool) -> 'a option
(** [pop_if h pred] removes and returns the minimum element when it
    satisfies [pred]; leaves the heap untouched otherwise.  Used by
    the engine to drain the set of equal-time ready tasks. *)
